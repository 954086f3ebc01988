// Command hepcclbench is the repository's one benchmark. It builds
// cmd/hepccld from source, runs it as a subprocess pinned to one CPU with
// GOMAXPROCS=1, drives it from this process pinned to another CPU over a
// single connection, checks every downlink record byte for byte against the
// per-pixel oracle, and prints every metric by name with its unit.
//
// Two ways to run it, from anywhere inside a checkout:
//
//	go run -C bench ./cmd/hepcclbench [-seed 1860] [-trace 1] [-out results.json]
//	    all five workloads in rounds, 40 reps of each phase, then (with
//	    -trace 1) the traced in-process run, the kernels and the budget table
//
//	go run -C bench ./cmd/hepcclbench --workload cta-sat --seed 7 --seconds 20 --trace 0
//	    one workload's phase of record for a fixed time, as BENCHMARK.json's
//	    command is run; the last line of standard output is the result as one
//	    JSON object
//
// See bench/README.md for what each metric means and how they interact.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/wustl-adapt/hepccl/bench/harness"
)

// repsPerPhase is the timed reps of each phase per workload when all five
// run in rounds. The protocol is the benchmark's, not the caller's.
const repsPerPhase = 40

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "hepcclbench:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("hepcclbench", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "", "run only this workload, time-bounded, and end with the result as one JSON line (default: all five in rounds)")
		seed     = fs.Uint64("seed", 1860, "workload seed: the same seed gives the same inputs")
		seconds  = fs.Int("seconds", 20, "with -workload: how long to measure")
		trace    = fs.Int("trace", 0, "1 adds the traced run: per-layer metrics, budget table, bench/out/trace-<workload>.json")
		outFile  = fs.String("out", "", "also write the results to this file for benchdiff")
		smoke    = fs.Bool("smoke", false, "tiny inputs, one rep: exercises the harness, measures nothing")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	single := *workload != ""
	// The host guard: a spin-gap probe before and after. Two seconds when a
	// person runs the whole benchmark; a quarter when the acceptance driver
	// runs one workload a hundred times over.
	probe := 2 * time.Second
	if single {
		probe = 250 * time.Millisecond
	}
	if *smoke {
		probe = 20 * time.Millisecond
	}
	ws := harness.Workloads()
	if single {
		w, err := harness.WorkloadByName(*workload)
		if err != nil {
			return err
		}
		ws = []harness.Workload{w}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	paths, err := harness.FindPaths()
	if err != nil {
		return err
	}
	host := harness.PinHost()
	bin, buildTime, err := harness.BuildDaemon(ctx, paths)
	if err != nil {
		return err
	}
	host.StallBefore = harness.SpinProbe(probe)
	s := &harness.Session{Ctx: ctx, Paths: paths, Bin: bin, Host: host, Seed: *seed, Smoke: *smoke}

	fmt.Fprintf(out, "hepcclbench: seed %d, %d workload(s), trace %d\n", *seed, len(ws), *trace)
	fmt.Fprintf(out, "host: nproc %d, daemon cpu %d (GOMAXPROCS=1), generator cpu %d (GOMAXPROCS=%d), %s, clock %s\n",
		host.NProc, host.DaemonCPU, host.GenCPU, host.GOMAXPROCS, host.GoVersion, host.Clock)
	fmt.Fprintf(out, "host: stall before run %.3f ms/s; build_s %.3f s\n", host.StallBefore, buildTime.Seconds())

	// The traced run repeats each spine and kernel measurement at least 25
	// times. Without -workload it gets the run length BENCHMARK.json fixes:
	// 20 s, three quarters to each workload's spine and a quarter, once, to
	// the kernels that do not depend on the workload.
	minReps, reps, budget := 25, repsPerPhase, 20*time.Second
	if single {
		budget = time.Duration(*seconds) * time.Second
	}
	if *smoke {
		minReps, reps, budget = 1, 1, 200*time.Millisecond
	}
	var results []*harness.WorkloadResult
	switch {
	case single && *trace != 0:
		res, err := s.Traced(ws[0], budget*3/4, minReps)
		if err != nil {
			return err
		}
		results = append(results, res)
	case single:
		if *smoke {
			budget = 0
		}
		results, err = s.EndToEnd(ws, budget, 3, 1<<30, false)
		if err != nil {
			return err
		}
	default:
		results, err = s.EndToEnd(ws, time.Hour, reps, reps, true)
		if err != nil {
			return err
		}
		if *trace == 0 {
			break
		}
		// The traced run is separate from the end-to-end reps: its own
		// daemon, phases grouped for /stats windows, then the spine.
		for i, w := range ws {
			tr, err := s.Traced(w, budget*3/4, minReps)
			if err != nil {
				return err
			}
			// What the rounds measured over all their reps stands; the
			// traced run adds the layers.
			for name, v := range tr.PerLayer {
				if _, ok := results[i].PerLayer[name]; !ok {
					results[i].PerLayer[name] = v
				}
			}
			results[i].Budget, results[i].TraceFile = tr.Budget, tr.TraceFile
			for _, fl := range tr.Flags {
				results[i].Flags = append(results[i].Flags, "traced run: "+fl)
			}
		}
	}
	var kernels *harness.PaperKernels
	if *trace != 0 {
		if kernels, err = s.PaperKernels(budget/4, minReps); err != nil {
			return err
		}
	}
	host.StallAfter = harness.SpinProbe(probe)
	stall := harness.Exact(max(host.StallBefore, host.StallAfter), "ms/s")

	file := harness.File{Host: *host, Label: host.Label(), BuildS: buildTime.Seconds()}
	for _, r := range results {
		r.PerLayer["host.stall_ms_per_s"] = stall
		if kernels != nil {
			kernels.AddTo(r)
		}
		if !host.Pinned {
			r.Flags = append(r.Flags, "UNPINNED: "+host.PinNote)
		}
		r.Print(out)
		file.Results = append(file.Results, *r)
	}
	fmt.Fprintf(out, "\nhost: stall after run %.3f ms/s; results are %s\n", host.StallAfter, file.Label)
	if kernels != nil {
		fmt.Fprintf(out, "tileccl: measured speedup at 2 workers on 2 CPUs %.2fx (README's modeled figure: 1.84x)\n",
			results[0].PerLayer["tileccl.speedup_w2"].Value)
	}
	if *outFile != "" {
		if err := file.WriteFile(*outFile); err != nil {
			return err
		}
	}
	if single {
		line, err := results[0].DriverLine(*trace != 0)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%s\n", line)
	}
	return nil
}
