package harness

import (
	"context"
	"fmt"
	"slices"
	"time"
)

// Session is one invocation of the benchmark.
type Session struct {
	Ctx   context.Context
	Paths Paths
	Bin   string // built hepccld
	Host  *Host
	Seed  uint64
	Smoke bool
}

// lateLimit is the generator lateness (p99 of send time minus due time)
// above which a paced rep is flagged: the latency it reports then includes
// the generator's own stall, not only the daemon's.
const lateLimit = 500 * time.Microsecond

// Prepared is one workload set up and ready: inputs made, oracle computed,
// daemon running and warmed, connection open. Between its turns the daemon
// sits parked.
type Prepared struct {
	W      Workload
	In     *Inputs
	D      *Daemon
	C      *Conn
	SetupS []float64 // every timed set-up of this run
	Sat    []Rep
	Paced  []Rep
}

// setupOnce times the whole of set-up: input generation, oracle records,
// daemon start to first verified record, and a warm-up of both phases. Work
// a later change moves into start-up or a cache shows here.
func (s *Session) setupOnce(w Workload) (*Prepared, error) {
	t0 := time.Now()
	in, err := Generate(w, s.Seed)
	if err != nil {
		return nil, err
	}
	d, err := StartDaemon(s.Ctx, s.Bin, s.Paths, w, s.Host)
	if err != nil {
		return nil, err
	}
	c, err := Dial(d, in)
	if err != nil {
		d.Stop()
		return nil, err
	}
	st := &Prepared{W: w, In: in, D: d, C: c}
	warm := func() error {
		first, err := c.RunSat(1)
		if err != nil {
			return err
		}
		sat, err := c.RunSat(max(1, w.SatEvents/4))
		if err != nil {
			return err
		}
		paced, err := c.RunPaced(max(1, w.PacedEvents/4), w.PacedRate)
		if err != nil {
			return err
		}
		if f := first.Failed() + sat.Failed() + paced.Failed(); f > 0 {
			return fmt.Errorf("%d of the warm-up's records failed verification", f)
		}
		return nil
	}
	if err := warm(); err != nil {
		st.Close()
		return nil, fmt.Errorf("warm-up %s: %w", w.Name, err)
	}
	st.SetupS = []float64{time.Since(t0).Seconds()}
	return st, nil
}

// setupMin and setupTime fix how often a workload is set up for setup_s: at
// least setupMin times, and until setupTime has been spent setting up, so the
// quick workloads, whose set-up a host stall distorts most, get the most draws.
const (
	setupMin  = 4
	setupTime = 4 * time.Second
)

// Setup readies the workload. With repeat it does so several times over,
// keeping the last for the measurement, so setup_s is picked from many draws
// and not one.
func (s *Session) Setup(w Workload, repeat bool) (*Prepared, error) {
	if s.Smoke {
		w, repeat = w.Smoke(), false
	}
	var all []float64
	for start := time.Now(); ; {
		st, err := s.setupOnce(w)
		if err != nil {
			return nil, err
		}
		all = append(all, st.SetupS...)
		if !repeat || (len(all) >= setupMin && time.Since(start) >= setupTime) {
			st.SetupS = all
			return st, nil
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
	}
}

// Close drains the connection and stops the daemon.
func (st *Prepared) Close() error {
	err := st.C.Close()
	st.D.Stop()
	if err != nil {
		return fmt.Errorf("close %s: %w", st.W.Name, err)
	}
	return nil
}

// RunSat appends one saturation rep.
func (st *Prepared) RunSat() error {
	r, err := st.C.RunSat(st.W.SatEvents)
	st.Sat = append(st.Sat, r)
	if err != nil {
		return fmt.Errorf("%s saturation rep: %w", st.W.Name, err)
	}
	return nil
}

// RunPaced appends one open-loop rep.
func (st *Prepared) RunPaced() error {
	r, err := st.C.RunPaced(st.W.PacedEvents, st.W.PacedRate)
	st.Paced = append(st.Paced, r)
	if err != nil {
		return fmt.Errorf("%s paced rep: %w", st.W.Name, err)
	}
	return nil
}

// RoundTime estimates the stage's next round from its last rep of each phase.
func (st *Prepared) RoundTime() time.Duration {
	if len(st.Sat)+len(st.Paced) == 0 {
		return time.Second
	}
	var d time.Duration
	if len(st.Sat) > 0 {
		d += st.Sat[len(st.Sat)-1].Elapsed
	}
	if len(st.Paced) > 0 {
		d += st.Paced[len(st.Paced)-1].Elapsed
	}
	return d
}

// Rounds runs rounds across the stages, so a noisy minute lands on every
// workload equally. A round is one rep of each stage's phase of record —
// saturation, or paced for an open-loop workload — and, with both set, one
// rep of its other phase too. It stops after maxRounds, or once the next
// round would overrun budget (never before minRounds).
func Rounds(stages []*Prepared, budget time.Duration, minRounds, maxRounds int, both bool) error {
	start := time.Now()
	for round := 0; round < maxRounds; round++ {
		var next time.Duration
		for _, st := range stages {
			next += st.RoundTime()
		}
		if round >= minRounds && time.Since(start)+next > budget {
			break
		}
		for _, st := range stages {
			if both || !st.W.OpenLoop {
				if err := st.RunSat(); err != nil {
					return err
				}
			}
			if both || st.W.OpenLoop {
				if err := st.RunPaced(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rateAndCPU gives each rep's verified records per second and daemon CPU per
// verified record, skipping a rep in which nothing verified.
func rateAndCPU(reps []Rep) (rate, cpu []float64) {
	for _, r := range reps {
		if r.OK == 0 || r.Elapsed <= 0 {
			continue
		}
		rate = append(rate, float64(r.OK)/r.Elapsed.Seconds())
		cpu = append(cpu, us(r.DaemonCPU)/float64(r.OK))
	}
	return rate, cpu
}

// Result reduces the stage's reps to the end-to-end metrics of record — from
// the paced reps for an open-loop workload, the saturation reps otherwise —
// and the per-layer numbers the drive itself observes in either phase.
func (st *Prepared) Result(seed uint64) (*WorkloadResult, error) {
	res := &WorkloadResult{Workload: st.W.Name, Seed: seed,
		EndToEnd: map[string]Summary{}, PerLayer: map[string]Summary{}}
	var genCPU, p50, p99, late []float64
	for _, r := range st.Sat {
		res.Attempted += r.Events
		res.Failed += r.Failed()
		if r.Elapsed > 0 {
			genCPU = append(genCPU, r.GenCPU.Seconds()/r.Elapsed.Seconds())
		}
	}
	lateReps, worstLate := 0, time.Duration(0)
	for _, r := range st.Paced {
		res.Attempted += r.Events
		res.Failed += r.Failed()
		if r.OK == 0 {
			continue
		}
		p50 = append(p50, us(r.P50))
		p99 = append(p99, us(r.P99))
		late = append(late, us(r.LateP99))
		if r.LateP99 > lateLimit {
			lateReps++
			worstLate = max(worstLate, r.LateP99)
		}
	}
	if lateReps > 0 {
		res.Flags = append(res.Flags, fmt.Sprintf(
			"%d of %d paced reps: the generator ran late (p99 over %.0f us, worst %.0f us); their latencies include its stall",
			lateReps, len(st.Paced), us(lateLimit), us(worstLate)))
	}
	satRate, satCPU := rateAndCPU(st.Sat)
	pacedRate, pacedCPU := rateAndCPU(st.Paced)
	rate, cpu := satRate, satCPU
	if st.W.OpenLoop {
		rate, cpu = pacedRate, pacedCPU
	}
	if len(rate) == 0 || (len(st.Sat) > 0 && len(satRate) == 0) || (len(st.Paced) > 0 && len(pacedRate) == 0) {
		return nil, fmt.Errorf("%s: a phase returned no verified record", st.W.Name)
	}
	res.Correct = res.Failed == 0
	rss, err := st.D.RSSMB()
	if err != nil {
		return nil, err
	}
	res.EndToEnd["events_per_s"] = Summarize(rate, "1/s", PickHigh)
	res.EndToEnd["cpu_us_per_event"] = Summarize(cpu, "us", PickLow)
	res.EndToEnd["rss_mb"] = Exact(rss, "MiB")
	// The fastest set-up: the host only ever adds to one (and the first of a
	// run finds the disk still busy with the previous run's WAL). Between two
	// ten-run sets of one commit the fastest of four moved at most 11 %, the
	// second fastest 19 %, their median 19 %.
	setup := Summarize(st.SetupS, "s", PickMedian)
	setup.Value = slices.Min(st.SetupS)
	res.EndToEnd["setup_s"] = setup

	if len(satRate) > 0 {
		res.PerLayer["sat_events_per_s"] = Summarize(satRate, "1/s", PickHigh)
		res.PerLayer["sat_cpu_us_per_event"] = Summarize(satCPU, "us", PickLow)
		res.PerLayer["gen.cpu_fraction"] = Summarize(genCPU, "ratio", PickMedian)
	}
	if len(pacedRate) > 0 {
		res.PerLayer["latency_p50_us"] = Summarize(p50, "us", PickMedian)
		res.PerLayer["latency_p99_us"] = Summarize(p99, "us", PickMedian)
		res.PerLayer["paced_cpu_us_per_event"] = Summarize(pacedCPU, "us", PickLow)
		res.PerLayer["gen.late_p99_us"] = Summarize(late, "us", PickMedian)
	}
	res.PerLayer["run.rep_spread"] = Exact(res.EndToEnd["events_per_s"].Spread, "ratio")
	res.PerLayer["failed_fraction"] = Exact(float64(res.Failed)/float64(res.Attempted), "ratio")
	return res, nil
}
