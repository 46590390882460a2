// Command hlfibench is the benchmark of the hlfi fault-injection
// system. It runs one workload (study, survey, adaptive or fleet)
// through the program's public API for a fixed number of seconds,
// checks the outputs against computations of its own, and prints one
// JSON result line:
//
//	hlfibench --workload study --seed 1 --seconds 24 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics, measured
// with every instrument off. With --trace 1 the same workload runs with
// the program's instruments armed plus the benchmark's own spans around
// each layer call, and the result carries the per-layer metrics and the
// tracing overhead. --quick runs every workload and check at a tiny size
// in seconds (the package tests use it).
//
// The workload seed is the benchmark's: the program only ever receives
// the study configuration generated from it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is the parsed command line.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	engines  string
	scratch  string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hlfibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "study", "workload: study|survey|adaptive|fleet")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: every generated study configuration derives from it")
	fs.IntVar(&o.seconds, "seconds", 24, "length of the timed phase in seconds (whole rounds only)")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics with instruments off; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.quick, "quick", false, "tiny sizes, one round, every check: a functional smoke run")
	fs.StringVar(&o.engines, "engines", "defaults", "execution engines for the study workloads: defaults (replay+compiled)|replay|compiled|neither (reference figures only)")
	fs.StringVar(&o.scratch, "scratch", ".bench_build/scratch", "directory for checkpoints and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintf(stderr, "hlfibench: --trace %d: want 0 or 1\n", traceFlag)
		return 2
	}
	o.trace = traceFlag == 1
	if o.seconds < 1 {
		fmt.Fprintf(stderr, "hlfibench: --seconds %d: want at least 1\n", o.seconds)
		return 2
	}
	w, err := lookupWorkload(o.workload, o.quick)
	if err != nil {
		fmt.Fprintf(stderr, "hlfibench: %v\n", err)
		return 2
	}
	if err := w.setEngines(o.engines); err != nil {
		fmt.Fprintf(stderr, "hlfibench: %v\n", err)
		return 2
	}
	// Two cells or workers in flight, never more threads than CPUs.
	procs := runtime.NumCPU()
	if procs > lanes {
		procs = lanes
	}
	runtime.GOMAXPROCS(procs)

	res, diag, err := runWorkload(w, o)
	if err != nil {
		fmt.Fprintf(stderr, "hlfibench: %s: %v\n", w.name, err)
		return 1
	}
	for _, f := range res.failures {
		fmt.Fprintf(stderr, "hlfibench: check failed: %s\n", f)
	}
	dj, _ := json.Marshal(diag)
	fmt.Fprintf(stdout, "diagnostics %s\n", dj)
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(res.failures) == 0, res.attempted, res.failed, res.metrics}
	rj, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(stderr, "hlfibench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", rj)
	if !out.Correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// diagnostics explain a run's figures without being metrics: the host
// steal over the timed phase, the CPU and scheduler shape, the toolchain.
type diagnostics struct {
	Workload   string    `json:"workload"`
	Seed       int64     `json:"seed"`
	Rounds     int       `json:"rounds"`
	TimedS     float64   `json:"timed_s"`
	StealS     float64   `json:"steal_s"`
	StealPct   float64   `json:"steal_pct"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"go"`
	Engines    string    `json:"engines"`
	SetupCPUS  []float64 `json:"setup_cpu_s"`
	SetupWallS []float64 `json:"setup_wall_s"`
	RoundRates []float64 `json:"round_activated_per_s"`
	ChecksS    float64   `json:"checks_s"`
	SpanFile   string    `json:"span_file,omitempty"`
}
