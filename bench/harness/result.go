package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Metric is one row of BENCHMARK.json's end_to_end or per_layer list.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "higher" or "lower"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// EndToEnd is the benchmark's gating metrics, measured on every workload
// from its phase of record — the open-loop phase for cta-15k-wal, where
// events_per_s is the rate delivered against 15,000 offered and
// cpu_us_per_event the cost of an event at that pace; the saturation phase
// for the rest: the verified rate, its CPU cost, the daemon's peak memory,
// and the harness's own set-up time.
//
// BENCHMARK.json has one bound per metric, not per workload, so each is set
// by the workload that repeats worst. Over nine ten-run sets of unchanged code
// on the 2-vCPU build box the widest run-to-run spreads were 11.9 %
// (events_per_s), 14.5 % (cpu_us_per_event), 19.5 % (rss_mb) and 20.9 %
// (setup_s); a bound is honest at three times the spread it is read against,
// which for all four is past the quarter the contract allows. See
// bench/README.md for the measurements, workload by workload.
//
// The open-loop latencies are deliberately not here. On this host the p50
// moves 105 -> 183 us between quiet and busy minutes with the code unchanged
// and the p99 sits exactly where the hypervisor's 3-4 ms stalls begin, so
// neither holds a quarter between two sets of runs; a gate that trips on the
// weather is worse than none. They are measured, printed and kept in the
// result files as per-layer numbers.
var EndToEnd = []Metric{
	{Name: "events_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_us_per_event", Unit: "us", Better: "lower", Bound: 0.25},
	{Name: "rss_mb", Unit: "MiB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// PerLayer is the non-gating layer budget, one prefix per module of the
// repository plus the benchmark's own guards.
var PerLayer = []Metric{
	{Name: "latency_p50_us", Unit: "us", Better: "lower"},
	{Name: "latency_p99_us", Unit: "us", Better: "lower"},
	{Name: "paced_cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "sat_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "sat_cpu_us_per_event", Unit: "us", Better: "lower"},
	{Name: "adapt.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "adapt.decode_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "adapt.serve_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "adapt.serve_single_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "adapt.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "adapt.wire_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "adapt.record_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "adapt.islands_per_event", Unit: "count", Better: "lower"},
	{Name: "adapt.lit_fraction", Unit: "ratio", Better: "lower"},
	{Name: "adapt.bad_packets", Unit: "count", Better: "lower"},
	{Name: "runccl.label_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "runccl.runs_per_event", Unit: "count", Better: "lower"},
	{Name: "runccl.label_us_frame512", Unit: "us", Better: "lower"},
	{Name: "tileccl.label_us_w1", Unit: "us", Better: "lower"},
	{Name: "tileccl.label_us_w2", Unit: "us", Better: "lower"},
	{Name: "tileccl.speedup_w2", Unit: "ratio", Better: "higher"},
	{Name: "tileccl.tile_us", Unit: "us", Better: "lower"},
	{Name: "tileccl.merge_us", Unit: "us", Better: "lower"},
	{Name: "tileccl.scatter_us", Unit: "us", Better: "lower"},
	{Name: "ccl.label_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "design.latency_cycles", Unit: "cycles", Better: "lower"},
	{Name: "design.events_per_s_100mhz", Unit: "1/s", Better: "higher"},
	{Name: "design.sim_us_per_event", Unit: "us", Better: "lower"},
	{Name: "wal.append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "wal.rotate_ms", Unit: "ms", Better: "lower"},
	{Name: "wal.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "wal.rotations", Unit: "count", Better: "lower"},
	{Name: "server.serve_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "server.events_in", Unit: "count", Better: "higher"},
	{Name: "server.events_out", Unit: "count", Better: "higher"},
	{Name: "server.dropped", Unit: "count", Better: "lower"},
	{Name: "server.bad_events", Unit: "count", Better: "lower"},
	{Name: "server.queue_hwm", Unit: "count", Better: "lower"},
	{Name: "server.handoff_p50_us", Unit: "us", Better: "lower"},
	{Name: "server.handoff_p99_us", Unit: "us", Better: "lower"},
	{Name: "server.bytes_out", Unit: "B", Better: "lower"},
	{Name: "server.wal_records", Unit: "count", Better: "higher"},
	{Name: "server.unattributed_us_per_event", Unit: "us", Better: "lower"},
	{Name: "server.paced_unattributed_us_per_event", Unit: "us", Better: "lower"},
	{Name: "spine.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "spine.stage_sum_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_fraction", Unit: "ratio", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.cpu_fraction", Unit: "ratio", Better: "lower"},
	{Name: "host.stall_ms_per_s", Unit: "ms/s", Better: "lower"},
	{Name: "run.rep_spread", Unit: "ratio", Better: "lower"},
	{Name: "failed_fraction", Unit: "ratio", Better: "lower"},
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []Metric `json:"end_to_end"`
	PerLayer []Metric `json:"per_layer"`
}

// LoadManifest reads BENCHMARK.json from path, or, with an empty path, from
// the nearest directory at or above the working directory that has one.
func LoadManifest(path string) (*Manifest, error) {
	if path == "" {
		dir, err := os.Getwd()
		if err != nil {
			return nil, fmt.Errorf("getwd: %w", err)
		}
		for d := dir; ; d = filepath.Dir(d) {
			path = filepath.Join(d, "BENCHMARK.json")
			if _, err := os.Stat(path); err == nil {
				break
			}
			if d == filepath.Dir(d) {
				return nil, fmt.Errorf("no BENCHMARK.json at or above %s", dir)
			}
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read manifest: %w", err)
	}
	var m Manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &m, nil
}

// StageBudget is one row of the per-workload time budget.
type StageBudget struct {
	Stage     string  `json:"stage"`
	SelfNs    float64 `json:"self_ns_per_event"`
	ShareOfUs float64 `json:"share_of_daemon_cpu"` // of the daemon's saturation cpu_us_per_event
}

// WorkloadResult is everything one workload's run produced.
type WorkloadResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Flags     []string           `json:"flags,omitempty"` // late-generator reps and the like
	EndToEnd  map[string]Summary `json:"end_to_end,omitempty"`
	PerLayer  map[string]Summary `json:"per_layer,omitempty"`
	Budget    []StageBudget      `json:"budget,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

// File is a result file: what `hepcclbench -out` writes and benchdiff reads.
type File struct {
	Host    Host             `json:"host"`
	Label   string           `json:"label"` // pinned | unpinned
	BuildS  float64          `json:"build_s"`
	Results []WorkloadResult `json:"results"`
}

// WriteFile stores f as indented JSON.
func (f *File) WriteFile(path string) error {
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return fmt.Errorf("encode results: %w", err)
	}
	if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("write results: %w", err)
	}
	return nil
}

// ReadFile loads a result file.
func ReadFile(path string) (*File, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("read results: %w", err)
	}
	var f File
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &f, nil
}

// driverLine is the contract's last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// DriverLine renders the single JSON object the acceptance driver parses:
// every end-to-end metric for an untraced run, every per-layer metric for a
// traced one.
func (r *WorkloadResult) DriverLine(traced bool) ([]byte, error) {
	defs, have := EndToEnd, r.EndToEnd
	if traced {
		defs, have = PerLayer, r.PerLayer
	}
	line := driverLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed,
		Metrics: make(map[string]driverValue, len(defs))}
	for _, m := range defs {
		s, ok := have[m.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s produced no %s", r.Workload, m.Name)
		}
		line.Metrics[m.Name] = driverValue{Value: s.Value, Unit: m.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return nil, fmt.Errorf("encode driver line: %w", err)
	}
	return b, nil
}

// Print writes every metric by name with its unit, and beside it the median,
// quartiles and spread of the repetitions it was picked from.
func (r *WorkloadResult) Print(w io.Writer) {
	fmt.Fprintf(w, "\n== %s (seed %d): %d events attempted, %d failed, correct=%v\n",
		r.Workload, r.Seed, r.Attempted, r.Failed, r.Correct)
	for _, fl := range r.Flags {
		fmt.Fprintf(w, "   FLAG %s\n", fl)
	}
	printMetrics(w, "end to end", EndToEnd, r.EndToEnd)
	printMetrics(w, "per layer", PerLayer, r.PerLayer)
	if len(r.Budget) > 0 {
		fmt.Fprintf(w, "  budget (self time per event; share of daemon CPU at saturation)\n")
		for _, b := range r.Budget {
			fmt.Fprintf(w, "    %-28s %12.1f ns  %5.1f%%\n", b.Stage, b.SelfNs, 100*b.ShareOfUs)
		}
	}
	if r.TraceFile != "" {
		fmt.Fprintf(w, "  trace: %s\n", r.TraceFile)
	}
}

func printMetrics(w io.Writer, title string, defs []Metric, have map[string]Summary) {
	if len(have) == 0 {
		return
	}
	fmt.Fprintf(w, "  %s\n", title)
	fmt.Fprintf(w, "    %-40s %14s %-7s %14s %14s %14s %8s %4s\n",
		"metric", "value", "unit", "median", "q1", "q3", "spread", "reps")
	for _, m := range defs {
		if s, ok := have[m.Name]; ok {
			fmt.Fprintf(w, "    %-40s %14.6g %-7s %14.6g %14.6g %14.6g %7.2f%% %4d\n",
				m.Name, s.Value, m.Unit, s.Median, s.Q1, s.Q3, 100*s.Spread, len(s.Reps))
		}
	}
}
