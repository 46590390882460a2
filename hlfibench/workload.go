package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"hlfi/internal/adaptive"
	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/fault"
)

// lanes is the number of cells (or fleet workers) in flight: one per
// CPU of the two-CPU host every workload is sized for.
const lanes = 2

// workload is one fixed make-up of inputs. Every size is fixed here; the
// seed only picks which random sample the study draws.
type workload struct {
	name string
	// n is the activated-injection target per cell (the adaptive base).
	n int
	// adaptive arms the early-stopping engine (adaptive workload only).
	adaptive *adaptive.Config
	// fleet runs the grid through an in-process coordinator and two
	// loopback HTTP workers instead of core.RunStudy.
	fleet bool
	// replay and compiled select the engines for the study workloads;
	// both on is the CLI default.
	replay, compiled bool
	engines          string

	// Sizes of the run's phases.
	setupBuilds   int // set-ups in a run; setup_s is their median
	maxRounds     int // 0: as many whole rounds as fit in --seconds
	armedAttempts int // armed-vs-bare attempts per cell
	reproCells    int // cells the benchmark's own loop re-runs
	probeCells    int // traced run: cells per level under the layer probes
	probeAttempts int // traced run: attempts per probed cell
	probeReps     int // traced run: repetitions of build and engine probes
	memOps        int // traced run: memory accesses per probe
}

// lookupWorkload returns the named workload at full or quick size.
func lookupWorkload(name string, quick bool) (*workload, error) {
	w := &workload{
		name: name, replay: true, compiled: true, engines: "defaults",
		setupBuilds: 11, armedAttempts: 2, reproCells: 2,
		probeCells: 3, probeAttempts: 70, probeReps: 3, memOps: 200_000,
	}
	switch name {
	case "study":
		w.n = 50
	case "survey":
		w.n = 10
	case "adaptive":
		w.n = 50
		w.adaptive = &adaptive.Config{Eps: 0.1, MinN: 16, Check: 8}
	case "fleet":
		w.n = 20
		w.fleet = true
	default:
		return nil, fmt.Errorf("unknown workload %q (want study|survey|adaptive|fleet)", name)
	}
	if quick {
		w.setupBuilds, w.maxRounds = 1, 1
		w.armedAttempts, w.reproCells = 1, 1
		w.probeCells, w.probeAttempts, w.probeReps, w.memOps = 1, 12, 1, 2_000
		switch name {
		case "adaptive":
			w.n = 24
			w.adaptive = &adaptive.Config{Eps: 0.2, MinN: 8, Check: 4}
		default:
			w.n = 3
		}
	}
	if w.adaptive != nil {
		if err := w.adaptive.Validate(); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// setEngines selects the execution engines of the study workloads.
func (w *workload) setEngines(engines string) error {
	switch engines {
	case "defaults":
		w.replay, w.compiled = true, true
	case "replay":
		w.replay, w.compiled = true, false
	case "compiled":
		w.replay, w.compiled = false, true
	case "neither":
		w.replay, w.compiled = false, false
	default:
		return fmt.Errorf("--engines %q: want defaults|replay|compiled|neither", engines)
	}
	if w.fleet && engines != "defaults" {
		return fmt.Errorf("--engines: the fleet workload always runs its workers' own engines")
	}
	w.engines = engines
	return nil
}

// roundSeed derives the study seed of one round from the workload seed
// (SplitMix64 finalizer). Every round draws a new sample, so a run's
// figures average over several study seeds, not one.
func roundSeed(seed int64, round int) int64 {
	return mix(uint64(seed), uint64(round)+1)
}

func mix(a, b uint64) int64 {
	z := a + b*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z & 0x7FFFFFFFFFFFFFFF)
}

// round is one whole execution of the workload's grid.
type round struct {
	seed   int64
	study  *core.Study
	cost   cost
	traced bool
	inst   *instruments
	// checkpoint holds the fleet coordinator's checkpoint records per
	// cell (fleet workload only).
	checkpoint map[core.CellKey]int
}

// studyConfig is the generated configuration the program receives.
func (w *workload) studyConfig(progs []*core.Program, seed int64) core.StudyConfig {
	cfg := core.StudyConfig{
		Programs: progs, N: w.n, Seed: seed, Parallel: lanes,
		Adaptive: w.adaptive,
	}
	if w.replay {
		cfg.Replay = &core.ReplayConfig{}
	}
	if w.compiled {
		cfg.Compiled = &core.CompiledConfig{}
	}
	return cfg
}

// runRound executes one round. The fresh Replay and Compiled configs
// give every round cold caches, as a separate CLI run would have.
func (w *workload) runRound(progs []*core.Program, seed int64, idx int, inst *instruments, dir string) (*round, error) {
	r := &round{seed: seed, traced: inst != nil, inst: inst}
	m := startCost()
	if w.fleet {
		stopped := false
		st, recs, err := runFleetRound(w, progs, seed, idx, inst, dir, func() { r.cost, stopped = m.stop(), true })
		if !stopped {
			m.stop()
		}
		if err != nil {
			return nil, err
		}
		r.study, r.checkpoint = st, recs
		return r, nil
	}
	cfg := w.studyConfig(progs, seed)
	inst.arm(&cfg)
	st, err := core.RunStudy(cfg)
	r.cost = m.stop()
	if err != nil {
		return nil, err
	}
	r.study = st
	return r, nil
}

// grid is the canonical cell list of one round.
func grid(progs []*core.Program) []core.CellKey {
	return core.CanonicalCells(progs, fault.Categories)
}

// runWorkload is one benchmark run: set-up, timed rounds, output checks,
// then (traced) the layer probes, and the metrics.
func runWorkload(w *workload, o options) (*result, diagnostics, error) {
	diag := diagnostics{
		Workload: w.name, Seed: o.seed, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Engines: w.engines,
	}
	// Set-up: build the six programs (minic, IR passes, codegen, both
	// golden runs and their equivalence check) several times, each from
	// a collected heap; the programs of the last build are used. setup_s
	// is the median CPU time of a build: wall-clock time of a build this
	// short also carries whatever the hypervisor steals during it.
	var progs []*core.Program
	for i := 0; i < w.setupBuilds; i++ {
		runtime.GC()
		m := startCost()
		p, err := bench.BuildAll()
		c := m.stop()
		if err != nil {
			return nil, diag, err
		}
		diag.SetupCPUS = append(diag.SetupCPUS, c.cpu.Seconds())
		diag.SetupWallS = append(diag.SetupWallS, c.wall.Seconds())
		progs = p
	}
	if err := os.MkdirAll(o.scratch, 0o755); err != nil {
		return nil, diag, err
	}
	dir, err := os.MkdirTemp(o.scratch, "run-")
	if err != nil {
		return nil, diag, err
	}
	defer os.RemoveAll(dir)

	// Timed phase: whole rounds, each with a fresh study seed and cold
	// caches as a separate CLI run would have, while the next round is
	// predicted to fit. A traced run alternates untraced and traced
	// rounds of the same seed, so the tracing overhead is measured within
	// one process on the same inputs.
	budget := time.Duration(o.seconds) * time.Second
	minRounds := 1
	if o.trace {
		minRounds = 2
	}
	var rounds []*round
	var timed time.Duration
	for i := 0; ; i++ {
		runtime.GC()
		var inst *instruments
		if o.trace && i%2 == 1 {
			inst = newInstruments(w.fleet)
		}
		// A traced run pairs each traced round with an untraced one of
		// the same study seed.
		seedIdx := i
		if o.trace {
			seedIdx = i / 2
		}
		r, err := w.runRound(progs, roundSeed(o.seed, seedIdx), i, inst, dir)
		if err != nil {
			return nil, diag, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, r)
		timed += r.cost.wall
		diag.RoundRates = append(diag.RoundRates, float64(activated(r.study))/r.cost.wall.Seconds())
		diag.StealS += r.cost.steal.Seconds()
		if len(rounds) < minRounds || len(rounds)%minRounds != 0 {
			continue
		}
		if w.maxRounds > 0 && len(rounds) >= w.maxRounds*minRounds {
			break
		}
		if timed+timed/time.Duration(len(rounds)) > budget {
			break
		}
	}
	diag.Rounds, diag.TimedS = len(rounds), timed.Seconds()
	if timed > 0 {
		diag.StealPct = 100 * diag.StealS / (timed.Seconds() * float64(runtime.NumCPU()))
	}

	res := &result{metrics: map[string]metric{}}
	cells := grid(progs)
	for _, r := range rounds {
		res.attempted += len(cells)
		res.failed += failedCells(r, cells)
	}
	checkStart := time.Now()
	ref, err := newReference(progs)
	if err != nil {
		return nil, diag, err
	}
	res.failures = checkOutputs(w, o.seed, progs, cells, rounds, ref)
	diag.ChecksS = time.Since(checkStart).Seconds()

	if o.trace {
		sp := newSpans()
		lay, err := probeLayers(w, o.seed, progs, ref, sp)
		if err != nil {
			return nil, diag, err
		}
		layerMetrics(res.metrics, w, rounds, lay, sp)
		diag.SpanFile, err = sp.write(o.scratch, fmt.Sprintf("spans-%s-%d.jsonl", w.name, o.seed))
		if err != nil {
			return nil, diag, err
		}
	} else {
		endToEnd(res.metrics, rounds, diag.SetupCPUS)
	}
	return res, diag, nil
}

// result is what the run prints.
type result struct {
	attempted, failed int
	metrics           map[string]metric
	failures          []string
}

// failedCells counts the canonical cells of a round that did not finish
// with a clean record: skipped, missing, or with contained simulator
// faults.
func failedCells(r *round, cells []core.CellKey) int {
	failed := 0
	for _, k := range cells {
		c := r.study.Cells[k]
		if c == nil || c.SimFaults > 0 {
			failed++
		}
	}
	return failed
}

// endToEnd computes the user-visible metrics from the untraced rounds.
// Per-round figures are reduced by their median, so one round slowed by
// the host does not move the run's figure.
func endToEnd(out map[string]metric, rounds []*round, setups []float64) {
	var rate, cpu, alloc, rss []float64
	worst := 0.0
	for _, r := range rounds {
		act := activated(r.study)
		rate = append(rate, float64(act)/r.cost.wall.Seconds())
		cpu = append(cpu, r.cost.cpu.Seconds()*1000/float64(act))
		alloc = append(alloc, float64(r.cost.alloc)/1024/float64(act))
		rss = append(rss, r.cost.rss)
		if hw := worstHalfWidth(r.study); hw > worst {
			worst = hw
		}
	}
	out["activated_per_s"] = metric{median(rate), "1/s"}
	out["cpu_ms_per_activated"] = metric{median(cpu), "ms"}
	out["alloc_kb_per_activated"] = metric{median(alloc), "KiB"}
	out["setup_s"] = metric{median(setups), "s"}
	out["peak_rss_mb"] = metric{median(rss), "MiB"}
	out["worst_halfwidth_pct"] = metric{100 * worst, "%"}
}

// activated totals the activated injections of a study.
func activated(st *core.Study) int {
	n := 0
	for _, c := range st.Cells {
		n += c.Activated()
	}
	return n
}

// worstHalfWidth is the widest Wilson 95% half-width of any outcome rate
// over the study's cells, recomputed from the counts.
func worstHalfWidth(st *core.Study) float64 {
	worst := 0.0
	for _, c := range st.Cells {
		if hw := maxHalfWidth(c); hw > worst {
			worst = hw
		}
	}
	return worst
}
