package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"

	"hlfi/internal/adaptive"
	"hlfi/internal/compile/irc"
	"hlfi/internal/compile/mc"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/llfi"
	"hlfi/internal/machine"
	"hlfi/internal/pinfi"
)

// reference is what the benchmark computes for itself, once per run:
// Table IV from its own profiling runs of the reference engines, and
// the snapshots and compiled programs it arms its own injectors with.
type reference struct {
	progs    map[string]*core.Program
	dyn      map[core.CellKey]uint64
	irSnaps  map[string][]*interp.Snapshot
	asmSnaps map[string][]*machine.Snapshot
	irc      map[string]*irc.Program
	mc       map[string]*mc.Program
}

// snapshotStride mirrors the replay default: about 64 snapshots per
// golden run, never closer than 512 instructions.
func snapshotStride(golden uint64) uint64 {
	if s := golden / 64; s > 512 {
		return s
	}
	return 512
}

func newReference(progs []*core.Program) (*reference, error) {
	ref := &reference{
		progs: map[string]*core.Program{}, dyn: map[core.CellKey]uint64{},
		irSnaps: map[string][]*interp.Snapshot{}, asmSnaps: map[string][]*machine.Snapshot{},
		irc: map[string]*irc.Program{}, mc: map[string]*mc.Program{},
	}
	for _, p := range progs {
		ref.progs[p.Name] = p
		img, base := p.Prep.Layout.Image, p.Prep.Layout.Base

		var out bytes.Buffer
		r := interp.NewRunner(p.Prep, &out)
		r.Profile = make([]uint64, p.Prep.SeqTotal)
		if _, err := r.Run(); err != nil {
			return nil, fmt.Errorf("%s: IR profile run: %w", p.Name, err)
		}
		out.Reset()
		m := machine.New(p.Asm, img, base, &out)
		m.Profile = make([]uint64, len(p.Asm.Instrs))
		if _, err := m.Run(); err != nil {
			return nil, fmt.Errorf("%s: machine profile run: %w", p.Name, err)
		}
		for _, cat := range fault.Categories {
			ref.dyn[core.CellKey{Prog: p.Name, Level: fault.LevelIR, Category: cat}] =
				llfi.CountDynamic(r.Profile, llfi.Candidates(p.Prep, cat))
			ref.dyn[core.CellKey{Prog: p.Name, Level: fault.LevelASM, Category: cat}] =
				pinfi.CountDynamic(m.Profile, pinfi.Candidates(p.Asm, cat))
		}

		var err error
		if ref.irSnaps[p.Name], err = llfi.CaptureSnapshots(p.Prep, snapshotStride(r.Executed())); err != nil {
			return nil, err
		}
		if ref.asmSnaps[p.Name], err = pinfi.CaptureSnapshots(p.Asm, img, base, snapshotStride(m.Executed())); err != nil {
			return nil, err
		}
		// A program the compilers cannot lower stays on the interpreter,
		// as under the CLI defaults.
		if cp, err := irc.Compile(p.Prep); err == nil {
			ref.irc[p.Name] = cp
		}
		if cp, err := mc.Compile(p.Asm, img, base); err == nil {
			ref.mc[p.Name] = cp
		}
	}
	return ref, nil
}

// attempt is what one injection returned.
type attempt struct {
	outcome fault.Outcome
	output  []byte
	exit    int64
}

// cellInjector is one level's injector behind a level-free face.
type cellInjector struct {
	dyn       uint64
	injectAt  func(trigger uint64, rng *rand.Rand) attempt
	injectOne func(rng *rand.Rand) attempt
}

// injectors builds one cell's injector twice from a single golden
// profile: armed the way the CLI defaults arm it (snapshots and compiled
// engines) and bare (interpreter, full re-execution).
func (ref *reference) injectors(key core.CellKey) (armed, bare *cellInjector, err error) {
	p := ref.progs[key.Prog]
	switch key.Level {
	case fault.LevelIR:
		inj, err := llfi.New(p.Prep, key.Category)
		if err != nil {
			return nil, nil, err
		}
		plain := *inj
		inj.UseSnapshots(ref.irSnaps[p.Name], nil)
		if cp := ref.irc[p.Name]; cp != nil {
			inj.UseCompiled(cp)
		}
		return llfiInjector(inj), llfiInjector(&plain), nil
	default:
		inj, err := pinfi.New(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base, key.Category)
		if err != nil {
			return nil, nil, err
		}
		plain := *inj
		inj.UseSnapshots(ref.asmSnaps[p.Name], nil)
		if cp := ref.mc[p.Name]; cp != nil {
			inj.UseCompiled(cp)
		}
		return pinfiInjector(inj), pinfiInjector(&plain), nil
	}
}

func llfiInjector(inj *llfi.Injector) *cellInjector {
	conv := func(r *llfi.Result) attempt { return attempt{r.Outcome, r.Output, r.Exit} }
	return &cellInjector{
		dyn:       inj.DynTotal,
		injectAt:  func(t uint64, rng *rand.Rand) attempt { return conv(inj.InjectAt(t, rng)) },
		injectOne: func(rng *rand.Rand) attempt { return conv(inj.InjectOne(rng)) },
	}
}

func pinfiInjector(inj *pinfi.Injector) *cellInjector {
	conv := func(r *pinfi.Result) attempt { return attempt{r.Outcome, r.Output, r.Exit} }
	return &cellInjector{
		dyn:       inj.DynTotal,
		injectAt:  func(t uint64, rng *rand.Rand) attempt { return conv(inj.InjectAt(t, rng)) },
		injectOne: func(rng *rand.Rand) attempt { return conv(inj.InjectOne(rng)) },
	}
}

// checkOutputs runs every output check of the workload and returns the
// failures (none when the outputs are correct).
func checkOutputs(w *workload, seed int64, progs []*core.Program, cells []core.CellKey, rounds []*round, ref *reference) []string {
	var fails []string
	failf := func(format string, a ...any) { fails = append(fails, fmt.Sprintf(format, a...)) }
	for i, r := range rounds {
		st := r.study
		at := fmt.Sprintf("round %d (seed %d)", i, r.seed)
		checkJSON(st, ref, func(f string, a ...any) { failf(at+": "+f, a...) })
		for _, k := range cells {
			if got, want := st.Dyn[k], ref.dyn[k]; got != want {
				failf("%s: Table IV %v: study has %d, own profile %d", at, k, got, want)
			}
			if c := st.Cells[k]; c != nil && c.DynCandidates != ref.dyn[k] {
				failf("%s: cell %v: DynCandidates %d, own profile %d", at, k, c.DynCandidates, ref.dyn[k])
			}
		}
		if w.adaptive == nil {
			checkFixedN(w.n, st, cells, func(f string, a ...any) { failf(at+": "+f, a...) })
		} else {
			checkAdaptive(w.n, w.adaptive, st, cells, func(f string, a ...any) { failf(at+": "+f, a...) })
		}
		if w.name == "survey" {
			checkTableIV(progs, st, func(f string, a ...any) { failf(at+": "+f, a...) })
		}
		if w.fleet {
			for _, k := range cells {
				if n := r.checkpoint[k]; n != 1 {
					failf("%s: cell %v resolved %d times in the coordinator checkpoint, want exactly once", at, k, n)
				}
			}
			if len(r.checkpoint) != len(cells) {
				failf("%s: checkpoint holds %d distinct cells, want %d", at, len(r.checkpoint), len(cells))
			}
		}
		// Tracing is invisible: a traced round equals its untraced twin
		// of the same seed cell for cell.
		if r.traced {
			for _, k := range cells {
				a, b := rounds[i-1].study.Cells[k], st.Cells[k]
				if a == nil || b == nil || *a != *b {
					failf("%s: traced cell %v differs from the untraced round of the same seed", at, k)
				}
			}
		}
		if r.inst != nil && r.inst.obs != nil {
			att, act := 0, 0
			for _, c := range st.Cells {
				att += c.Attempts
				act += c.Activated()
			}
			extra := reexecuted(st)
			if got := int(r.inst.obs.Attempts.Value()); got != att+extra {
				failf("%s: obs counted %d attempts, cells hold %d (+%d re-executed)", at, got, att, extra)
			}
			if got := int(r.inst.obs.Activated.Value()); got < act {
				failf("%s: obs counted %d activated, cells hold %d", at, got, act)
			}
		}
	}
	checkArmed(w, seed, cells, ref, failf)
	checkRepro(w, seed, rounds, ref, failf)
	return fails
}

// reexecuted counts round-1 attempts that adaptive extensions ran again.
func reexecuted(st *core.Study) int {
	n := 0
	for _, c := range st.Cells {
		if c.Adaptive.Extended {
			n += c.Adaptive.Round1.Attempts
		}
	}
	return n
}

// checkJSON compares the study's JSON report with the benchmark's own
// arithmetic: counts and rates from the cells, the SDC half-width (the
// report's Wald interval) and, for adaptive studies, every cell's widest
// Wilson half-width.
func checkJSON(st *core.Study, ref *reference, failf func(string, ...any)) {
	var buf bytes.Buffer
	if err := st.WriteExperimentJSON(&buf, "all"); err != nil {
		failf("JSON report: %v", err)
		return
	}
	var js core.StudyJSON
	if err := json.Unmarshal(buf.Bytes(), &js); err != nil {
		failf("JSON report does not parse: %v", err)
		return
	}
	if len(js.Cells) != len(st.Cells) {
		failf("JSON report has %d cells, study %d", len(js.Cells), len(st.Cells))
	}
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	lookup := func(bench, tool, cat string) (core.CellKey, *core.CellResult) {
		lv, err1 := fault.ParseLevel(tool)
		ct, err2 := fault.ParseCategory(cat)
		if err1 != nil || err2 != nil {
			return core.CellKey{}, nil
		}
		k := core.CellKey{Prog: bench, Level: lv, Category: ct}
		return k, st.Cells[k]
	}
	for _, jc := range js.Cells {
		k, c := lookup(jc.Benchmark, jc.Tool, jc.Category)
		if c == nil {
			failf("JSON cell %s/%s/%s is not in the study", jc.Benchmark, jc.Tool, jc.Category)
			continue
		}
		act := c.Activated()
		switch {
		case jc.Activated != act || jc.Crash != c.Crash || jc.SDC != c.SDC || jc.Hang != c.Hang ||
			jc.Benign != c.Benign || jc.NotActivated != c.NotActivated:
			failf("JSON cell %v: counts differ from the study", k)
		case !near(jc.CrashRate, float64(c.Crash)/float64(act)) || !near(jc.SDCRate, float64(c.SDC)/float64(act)):
			failf("JSON cell %v: rates differ from the counts", k)
		case !near(jc.SDCCI95, waldHalfWidth(c.SDC, act)):
			failf("JSON cell %v: sdcCi95 %.15g, recomputed %.15g", k, jc.SDCCI95, waldHalfWidth(c.SDC, act))
		case jc.DynCandidates != ref.dyn[k]:
			failf("JSON cell %v: dynCandidates %d, own profile %d", k, jc.DynCandidates, ref.dyn[k])
		}
	}
	if st.Adaptive == nil {
		if js.Adaptive != nil {
			failf("fixed-n JSON report carries an adaptive section")
		}
		return
	}
	if js.Adaptive == nil {
		failf("adaptive JSON report has no adaptive section")
		return
	}
	for _, ac := range js.Adaptive.Cells {
		k, c := lookup(ac.Benchmark, ac.Tool, ac.Category)
		if c == nil {
			failf("adaptive JSON cell %s/%s/%s is not in the study", ac.Benchmark, ac.Tool, ac.Category)
			continue
		}
		if hw := maxHalfWidth(c); !near(ac.MaxHalfWidth, hw) {
			failf("adaptive JSON cell %v: maxHalfWidth %.15g, recomputed Wilson %.15g", k, ac.MaxHalfWidth, hw)
		}
		if ac.Converged != c.Adaptive.Converged || ac.Extended != c.Adaptive.Extended || ac.Target != c.Adaptive.Target {
			failf("adaptive JSON cell %v: stop state differs from the study", k)
		}
	}
}

// maxHalfWidth is the widest Wilson 95% half-width of the cell's four
// outcome rates.
func maxHalfWidth(c *core.CellResult) float64 {
	n := c.Activated()
	w := 0.0
	for _, k := range []int{c.Benign, c.SDC, c.Crash, c.Hang} {
		w = math.Max(w, wilsonHalfWidth(k, n))
	}
	return w
}

// checkFixedN holds the activated-fault accounting of a fixed-n study:
// every cell present, its outcomes summing to exactly n activated
// injections, no more activated than attempts, no simulator faults.
func checkFixedN(n int, st *core.Study, cells []core.CellKey, failf func(string, ...any)) {
	for _, k := range cells {
		c := st.Cells[k]
		switch {
		case c == nil:
			failf("cell %v missing (skipped)", k)
		case c.Crash+c.SDC+c.Benign+c.Hang != n:
			failf("cell %v: crash+sdc+benign+hang = %d, want n = %d", k, c.Activated(), n)
		case c.Attempts < c.Activated() || c.Attempts != c.Activated()+c.NotActivated+c.SimFaults:
			failf("cell %v: %d attempts for %d activated + %d not activated", k, c.Attempts, c.Activated(), c.NotActivated)
		case c.SimFaults != 0:
			failf("cell %v: %d simulator faults", k, c.SimFaults)
		}
	}
}

// checkAdaptive holds the early-stopping contract: a converged cell has
// every outcome half-width within eps (recomputed here), every other
// cell reached its target, and the study spent no more than n per cell.
func checkAdaptive(n int, cfg *adaptive.Config, st *core.Study, cells []core.CellKey, failf func(string, ...any)) {
	total := 0
	for _, k := range cells {
		c := st.Cells[k]
		if c == nil {
			failf("cell %v missing (skipped)", k)
			continue
		}
		total += c.Activated()
		a := c.Adaptive
		switch {
		case c.SimFaults != 0:
			failf("cell %v: %d simulator faults", k, c.SimFaults)
		case a.Target < n || (a.Target > n) != a.Extended:
			failf("cell %v: target %d (extended %v) for base %d", k, a.Target, a.Extended, n)
		case a.Converged && (maxHalfWidth(c) > cfg.Eps || c.Activated() < cfg.MinN):
			failf("cell %v: reported converged at %d activated with half-width %.4f > eps %.4f", k, c.Activated(), maxHalfWidth(c), cfg.Eps)
		case !a.Converged && c.Activated() != a.Target:
			failf("cell %v: not converged and %d activated short of target %d", k, c.Activated(), a.Target)
		}
	}
	if total > n*len(cells) {
		failf("adaptive study spent %d activated, more than n x cells = %d", total, n*len(cells))
	}
}

// checkTableIV holds the paper's Table IV properties: compare
// instructions are counted alike at both levels, and the IR level sees
// more casts than the assembly level.
func checkTableIV(progs []*core.Program, st *core.Study, failf func(string, ...any)) {
	for _, p := range progs {
		ir := func(c fault.Category) float64 {
			return float64(st.Dyn[core.CellKey{Prog: p.Name, Level: fault.LevelIR, Category: c}])
		}
		asm := func(c fault.Category) float64 {
			return float64(st.Dyn[core.CellKey{Prog: p.Name, Level: fault.LevelASM, Category: c}])
		}
		if a, b := ir(fault.CatCmp), asm(fault.CatCmp); math.Abs(a-b) > 0.1*math.Max(a, b) {
			failf("Table IV %s: cmp %v (LLFI) vs %v (PINFI) differ by more than 10%%", p.Name, a, b)
		}
		if a, b := ir(fault.CatCast), asm(fault.CatCast); a <= b {
			failf("Table IV %s: LLFI sees %v casts, PINFI %v: want more at the IR level", p.Name, a, b)
		}
	}
}

// checkArmed compares, for a seeded sample of attempts in every cell,
// the injector armed as under the CLI defaults with the bare
// interpreter injector: same trigger, same rng, same outcome, output
// and exit.
func checkArmed(w *workload, seed int64, cells []core.CellKey, ref *reference, failf func(string, ...any)) {
	for ci, k := range cells {
		armed, bare, err := ref.injectors(k)
		if err != nil {
			failf("armed check %v: %v", k, err)
			continue
		}
		for j := 0; j < w.armedAttempts; j++ {
			s := mix(uint64(seed), uint64(ci*64+j))
			trigger := uint64(rand.New(rand.NewSource(s)).Int63n(int64(armed.dyn)))
			a := armed.injectAt(trigger, rand.New(rand.NewSource(s+1)))
			b := bare.injectAt(trigger, rand.New(rand.NewSource(s+1)))
			if a.outcome != b.outcome || a.exit != b.exit || !bytes.Equal(a.output, b.output) {
				failf("armed check %v trigger %d: armed %v exit %d, bare %v exit %d", k, trigger, a.outcome, a.exit, b.outcome, b.exit)
			}
		}
	}
}

// checkRepro re-runs a seeded sample of cells with the benchmark's own
// campaign loop: InjectOne on the cell's seeded stream, non-activated
// draws redrawn, the stopping rule applied after every attempt when
// adaptive, and requires the study's record exactly.
func checkRepro(w *workload, seed int64, rounds []*round, ref *reference, failf func(string, ...any)) {
	rng := rand.New(rand.NewSource(mix(uint64(seed), 0xC0FFEE)))
	for i := 0; i < w.reproCells; i++ {
		r := rounds[rng.Intn(len(rounds))]
		cells := grid(r.study.Programs)
		k := cells[rng.Intn(len(cells))]
		got := r.study.Cells[k]
		if got == nil {
			failf("repro %v: cell missing", k)
			continue
		}
		armed, _, err := ref.injectors(k)
		if err != nil {
			failf("repro %v: %v", k, err)
			continue
		}
		target := w.n
		if w.adaptive != nil {
			target = got.Adaptive.Target
		}
		own := ownCampaign(armed, core.CellSeed(r.seed, k), target, w.n, w.adaptive)
		own.Prog, own.Level, own.Category, own.DynCandidates = k.Prog, k.Level, k.Category, ref.dyn[k]
		if own != *got {
			failf("repro %v (study seed %d): own loop %+v, study %+v", k, r.seed, own, *got)
		}
	}
}

// ownCampaign is the benchmark's own cell loop: draw until target
// activated injections (or ten times as many attempts), and under the
// adaptive rule stop at check-cadence attempt counts once min activated
// landed and every Wilson half-width is within eps. An extension (target
// above base) records its counts at the round-1 boundary.
func ownCampaign(inj *cellInjector, seed int64, target, base int, cfg *adaptive.Config) core.CellResult {
	rng := rand.New(rand.NewSource(seed))
	var c core.CellResult
	captured := cfg == nil || base >= target
	for c.Activated() < target && c.Attempts < 10*target {
		a := inj.injectOne(rng)
		c.Attempts++
		switch a.outcome {
		case fault.OutcomeBenign:
			c.Benign++
		case fault.OutcomeSDC:
			c.SDC++
		case fault.OutcomeCrash:
			c.Crash++
		case fault.OutcomeHang:
			c.Hang++
		default:
			c.NotActivated++
		}
		if cfg == nil {
			continue
		}
		if !captured && (c.Activated() >= base || c.Attempts >= 10*base) {
			captured = true
			c.Adaptive.Extended = true
			c.Adaptive.Round1 = core.AdaptiveCounts{Benign: c.Benign, SDC: c.SDC, Crash: c.Crash,
				Hang: c.Hang, NotActivated: c.NotActivated, Attempts: c.Attempts}
		}
		if c.Attempts%cfg.Check == 0 && c.Activated() >= cfg.MinN && maxHalfWidth(&c) <= cfg.Eps {
			c.Adaptive.Converged = true
			break
		}
	}
	if cfg != nil {
		c.Adaptive.Target = target
	}
	return c
}
