package harness

import (
	"fmt"
	"slices"
	"time"
)

// EndToEnd sets up every workload (all daemons started and parked before
// any timed rep), runs the rounds, and reduces them. It is the untraced
// measurement: no span is recorded and /stats is not scraped while it runs.
// A round runs each workload's phase of record; both adds a rep of its other
// phase, for the per-layer numbers only that phase has.
func (s *Session) EndToEnd(ws []Workload, budget time.Duration, minRounds, maxRounds int, both bool) ([]*WorkloadResult, error) {
	var stages []*Prepared
	defer func() {
		for _, st := range stages {
			st.D.Stop()
		}
	}()
	for _, w := range ws {
		st, err := s.Setup(w, true)
		if err != nil {
			return nil, err
		}
		stages = append(stages, st)
	}
	if err := Rounds(stages, budget, minRounds, maxRounds, both); err != nil {
		return nil, err
	}
	var out []*WorkloadResult
	for _, st := range stages {
		res, err := st.Result(s.Seed)
		if err != nil {
			return nil, err
		}
		if err := st.C.Close(); err != nil {
			return nil, fmt.Errorf("close %s: %w", st.W.Name, err)
		}
		out = append(out, res)
	}
	return out, nil
}

// Traced is the separate traced run of one workload. It first drives the
// daemon phase by phase with /stats scraped around each (the server.*
// deltas and the CPU figure the budget is compared against), then stops the
// daemon and replays the same bytes through the in-process spine with spans
// on and off, then times runccl on the workload's own images. budget is split
// between the parts; minReps is the floor on spine and kernel repetitions.
func (s *Session) Traced(w Workload, budget time.Duration, minReps int) (*WorkloadResult, error) {
	st, err := s.Setup(w, false)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		if !stopped {
			st.D.Stop()
		}
	}()
	w = st.W // Smoke may have shrunk it

	// Part 1: the daemon, phases grouped so each has its own /stats window.
	reps := int((budget * 4 / 10) / (2 * 500 * time.Millisecond))
	if reps < 3 {
		reps = 3
	}
	if s.Smoke {
		reps = 1
	}
	a, err := st.D.Stats(s.Ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < reps; i++ {
		if err := st.RunSat(); err != nil {
			return nil, err
		}
	}
	b, err := st.D.Stats(s.Ctx)
	if err != nil {
		return nil, err
	}
	for i := 0; i < reps; i++ {
		if err := st.RunPaced(); err != nil {
			return nil, err
		}
	}
	c, err := st.D.Stats(s.Ctx)
	if err != nil {
		return nil, err
	}
	res, err := st.Result(s.Seed)
	if err != nil {
		return nil, err
	}
	cerr := st.Close() // the kernels want the machine to themselves
	stopped = true
	if cerr != nil {
		return nil, cerr
	}
	pl := res.PerLayer
	pl["server.serve_ns_per_event"] = Exact(ServeNsPerEvent(a, b), "ns")
	pl["server.events_in"] = Exact(float64(c.EventsIn-a.EventsIn), "count")
	pl["server.events_out"] = Exact(float64(c.EventsOut-a.EventsOut), "count")
	pl["server.dropped"] = Exact(float64(c.Dropped-a.Dropped), "count")
	pl["server.bad_events"] = Exact(float64(c.BadEvents-a.BadEvents), "count")
	pl["server.bytes_out"] = Exact(float64(c.BytesOut-a.BytesOut), "B")
	pl["server.queue_hwm"] = Exact(float64(c.QueueHWM), "count")
	// The handoff histogram is cumulative and cannot be differenced, so it
	// is read at the end of the saturation phase: ring residency with the
	// queue full (warm-up included, which is the same kind of traffic).
	pl["server.handoff_p50_us"] = Exact(float64(b.Latency.P50Us), "us")
	pl["server.handoff_p99_us"] = Exact(float64(b.Latency.P99Us), "us")
	walRecords, walRotations := 0.0, 0.0
	if c.WAL != nil && a.WAL != nil {
		walRecords = float64(c.WAL.Records - a.WAL.Records)
		walRotations = float64(c.WAL.Segments - a.WAL.Segments)
	}
	pl["server.wal_records"] = Exact(walRecords, "count")
	// Segments the daemon opened while driven: how often a rep met a rotation.
	pl["wal.rotations"] = Exact(walRotations, "count")

	// Part 2: the in-process spine, spans on and off.
	spine, err := NewSpine(st.In, s.Paths.Out)
	if err != nil {
		return nil, err
	}
	defer spine.Close()
	sr, err := RunSpine(spine, budget*4/10, minReps)
	if err != nil {
		return nil, err
	}
	spine.Single = true
	single, err := RunSpine(spine, budget/8, max(1, minReps/5))
	if err != nil {
		return nil, err
	}
	res.TraceFile, err = WriteTrace(s.Paths.Out, w.Name, sr.Spans)
	if err != nil {
		return nil, err
	}
	counts := st.In.Counts()
	// The stage breakdown comes from the single best traced rep, so the
	// spans-off figure it is checked against is the single best rep too.
	untraced := Summarize(sr.UntracedNs, "ns", PickLow)
	untraced.Value = slices.Min(sr.UntracedNs)
	pl["spine.ns_per_event"] = untraced
	pl["spine.stage_sum_ns_per_event"] = Exact(sr.StageSum(), "ns")
	// Each traced rep is compared with the untraced rep run just before it,
	// so both sides of every pair saw the same host.
	overhead := make([]float64, len(sr.TracedNs))
	for i, t := range sr.TracedNs {
		overhead[i] = (t - sr.UntracedNs[i]) / sr.UntracedNs[i]
	}
	pl["trace.overhead_fraction"] = Summarize(overhead, "ratio", PickMedian)
	pl["adapt.decode_ns_per_event"] = Exact(sr.SelfNs[StageDecode], "ns")
	pl["adapt.decode_mb_per_s"] = Exact(counts.WireBytesPerEvent/sr.SelfNs[StageDecode]*1e3, "MB/s")
	pl["adapt.serve_ns_per_event"] = Exact(sr.SelfNs[StageServe], "ns")
	pl["adapt.serve_single_ns_per_event"] = Exact(single.SelfNs[StageServe], "ns")
	pl["adapt.encode_ns_per_event"] = Exact(sr.SelfNs[StageEncode], "ns")
	pl["adapt.wire_bytes_per_event"] = Exact(counts.WireBytesPerEvent, "B")
	pl["adapt.record_bytes_per_event"] = Exact(counts.RecordBytesPerEvent, "B")
	pl["adapt.islands_per_event"] = Exact(counts.IslandsPerEvent, "count")
	pl["adapt.lit_fraction"] = Exact(counts.LitFraction, "ratio")
	pl["adapt.bad_packets"] = Exact(float64(spine.Bad()), "count")

	// Part 3: runccl on the workload's own images.
	labelNs, runs, err := RunCCLKernel(st.In, budget*3/40, minReps)
	if err != nil {
		return nil, err
	}
	pl["runccl.label_ns_per_event"] = Summarize(labelNs, "ns", PickLow)
	pl["runccl.runs_per_event"] = Exact(runs, "count")

	// The budget: what the layers account for, against what the daemon
	// spent. The remainder is socket read, ring residency, wake and response
	// write — the part nobody could account for before this benchmark.
	satCPU := pl["sat_cpu_us_per_event"].Value
	pacedCPU := pl["paced_cpu_us_per_event"].Value
	pacedSum := sr.StageSum() - sr.SelfNs[StageServe] + single.SelfNs[StageServe]
	pl["server.unattributed_us_per_event"] = Exact(satCPU-sr.StageSum()/1e3, "us")
	pl["server.paced_unattributed_us_per_event"] = Exact(pacedCPU-pacedSum/1e3, "us")
	for stg := StageDecode; stg < numStages; stg++ {
		if stg == StageWAL && !w.WAL {
			continue
		}
		res.Budget = append(res.Budget, StageBudget{Stage: stg.String(),
			SelfNs: sr.SelfNs[stg], ShareOfUs: sr.SelfNs[stg] / 1e3 / satCPU})
	}
	res.Budget = append(res.Budget,
		StageBudget{Stage: "stage sum", SelfNs: sr.StageSum(), ShareOfUs: sr.StageSum() / 1e3 / satCPU},
		StageBudget{Stage: "spine untraced", SelfNs: untraced.Value, ShareOfUs: untraced.Value / 1e3 / satCPU},
		StageBudget{Stage: "daemon cpu (saturation)", SelfNs: satCPU * 1e3, ShareOfUs: 1},
		StageBudget{Stage: "unattributed", SelfNs: satCPU*1e3 - sr.StageSum(), ShareOfUs: 1 - sr.StageSum()/1e3/satCPU},
	)
	return res, nil
}

// PaperKernels times the kernels that do not depend on the workload being
// run — the paper's labeler and simulated design on the cta-sat images,
// tileccl on the frame512 images, single WAL appends — once for the session.
func (s *Session) PaperKernels(budget time.Duration, minReps int) (*PaperKernels, error) {
	w, err := WorkloadByName("cta-sat")
	if err != nil {
		return nil, err
	}
	if s.Smoke {
		w = w.Smoke()
	}
	cta, err := Generate(w, s.Seed)
	if err != nil {
		return nil, err
	}
	return RunPaperKernels(cta, s.Host, s.Paths.Out, budget, minReps)
}

// AddTo puts the session's kernel numbers beside a workload's layers.
func (k *PaperKernels) AddTo(res *WorkloadResult) {
	pl := res.PerLayer
	w1 := Summarize(k.TileW1Us, "us", PickLow)
	w2 := Summarize(k.TileW2Us, "us", PickLow)
	pl["ccl.label_ns_per_event"] = Summarize(k.CCLLabelNs, "ns", PickLow)
	pl["design.latency_cycles"] = Exact(k.DesignCycles, "cycles")
	pl["design.events_per_s_100mhz"] = Exact(k.DesignRate, "1/s")
	pl["design.sim_us_per_event"] = Summarize(k.DesignSimUs, "us", PickLow)
	pl["runccl.label_us_frame512"] = Summarize(k.RunFrame512Us, "us", PickLow)
	pl["tileccl.label_us_w1"] = w1
	pl["tileccl.label_us_w2"] = w2
	pl["tileccl.speedup_w2"] = Exact(w1.Value/w2.Value, "ratio")
	pl["tileccl.tile_us"] = Exact(k.TileUs, "us")
	pl["tileccl.merge_us"] = Exact(k.MergeUs, "us")
	pl["tileccl.scatter_us"] = Exact(k.ScatterUs, "us")
	pl["wal.append_ns_per_event"] = Exact(k.WALAppendNs, "ns")
	pl["wal.rotate_ms"] = Exact(k.WALRotateMs, "ms")
	pl["wal.bytes_per_event"] = Exact(k.WALBytesPerEv, "B")
	if !k.TwoCPUs {
		res.Flags = append(res.Flags, "tileccl.speedup_w2 measured without two pinned CPUs")
	}
}
