package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"sync"
	"time"

	"hlfi/internal/bench"
	"hlfi/internal/codegen"
	"hlfi/internal/compile/irc"
	"hlfi/internal/compile/mc"
	"hlfi/internal/core"
	"hlfi/internal/fault"
	"hlfi/internal/interp"
	"hlfi/internal/ir"
	"hlfi/internal/llfi"
	"hlfi/internal/machine"
	"hlfi/internal/mem"
	"hlfi/internal/minic"
	"hlfi/internal/obs"
	"hlfi/internal/obs/trace"
	"hlfi/internal/pinfi"
	"hlfi/internal/telemetry"
	"hlfi/internal/x86"
)

// instruments are the program's own accounting, armed on traced rounds.
type instruments struct {
	events *eventLog
	obs    *obs.Metrics
	trace  *trace.Recorder
	replay *telemetry.ReplayStats
	fleet  *fleetStats
}

func newInstruments(isFleet bool) *instruments {
	tr, _ := trace.New(trace.Options{Capacity: 1 << 16}) // in memory only: no error source
	in := &instruments{events: &eventLog{}, trace: tr}
	if isFleet {
		in.fleet = newFleetStats()
	} else {
		in.obs, in.replay = obs.New(), &telemetry.ReplayStats{}
	}
	return in
}

// arm wires the instruments into a study configuration (nil: untraced).
func (in *instruments) arm(cfg *core.StudyConfig) {
	if in == nil {
		return
	}
	cfg.Events, cfg.Obs, cfg.Trace = in.events, in.obs, in.trace
	if cfg.Replay != nil {
		cfg.Replay.Stats = in.replay
	}
}

// eventLog keeps the telemetry stream in memory.
type eventLog struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (l *eventLog) Record(e telemetry.Event) {
	l.mu.Lock()
	l.events = append(l.events, e)
	l.mu.Unlock()
}

// probes are the layer measurements the traced run makes itself, each
// call wrapped in a span.
type probes struct {
	reps                                   int
	compileMs, prepareMs, lowerMs, checkMs float64 // summed over reps x six programs
	staticInstrs                           int
	instrs                                 map[string]uint64  // engine -> instructions retired
	busy                                   map[string]float64 // engine -> seconds
	runs                                   map[string]int
	alloc                                  map[string]uint64
	ircCompile, mcCompile                  []float64 // ms
	llfiNew, pinfiNew, capture             []float64 // ms
	restore                                []float64 // us
	llfiAttempt, pinfiAttempt              []float64 // ms
	readNs, writeNs, cloneUs, snapshotUs   float64
}

// probeLayers times the layers from outside, through their public
// functions, on the six programs and a seeded sample of cells.
func probeLayers(w *workload, seed int64, progs []*core.Program, ref *reference, sp *spans) (*probes, error) {
	pr := &probes{reps: w.probeReps, instrs: map[string]uint64{}, busy: map[string]float64{},
		runs: map[string]int{}, alloc: map[string]uint64{}}
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }

	// engine runs one fault-free execution inside a span and accounts
	// its instructions, time and allocation to the engine.
	engine := func(layer, name string, run func() (uint64, error)) error {
		a0 := heapAllocBytes()
		var n uint64
		var err error
		d := sp.time(layer, name, func() { n, err = run() })
		pr.alloc[layer] += heapAllocBytes() - a0
		pr.instrs[layer] += n
		pr.busy[layer] += d.Seconds()
		pr.runs[layer]++
		return err
	}

	// Build layers: the steps of core.BuildProgram, each its own call.
	for rep := 0; rep < w.probeReps; rep++ {
		for _, b := range bench.All() {
			var mod *ir.Module
			var prep *interp.Prepared
			var asm *x86.Program
			var err error
			pr.compileMs += ms(sp.time("minic", "minic.Compile "+b.Name, func() { mod, err = minic.Compile(b.Name, b.Source) }))
			if err != nil {
				return nil, err
			}
			pr.prepareMs += ms(sp.time("interp", "interp.Prepare "+b.Name, func() { prep, err = interp.Prepare(mod) }))
			if err != nil {
				return nil, err
			}
			pr.lowerMs += ms(sp.time("codegen", "codegen.Lower "+b.Name, func() { asm, err = codegen.Lower(mod, prep.Layout, codegen.DefaultOptions()) }))
			if err != nil {
				return nil, err
			}
			if rep == 0 {
				pr.staticInstrs += len(asm.Instrs)
			}
			var irOut, asmOut bytes.Buffer
			var irRC, asmRC int64
			id := sp.begin("core", "core.golden_check "+b.Name)
			err = engine("interp", "interp.Run "+b.Name, func() (uint64, error) {
				r := interp.NewRunner(prep, &irOut)
				rc, err := r.Run()
				irRC = rc
				return r.Executed(), err
			})
			if err == nil {
				err = engine("machine", "machine.Run "+b.Name, func() (uint64, error) {
					m := machine.New(asm, prep.Layout.Image, prep.Layout.Base, &asmOut)
					rc, err := m.Run()
					asmRC = rc
					return m.Executed(), err
				})
			}
			if err == nil && (!bytes.Equal(irOut.Bytes(), asmOut.Bytes()) || irRC != asmRC) {
				err = fmt.Errorf("%s: golden runs diverge between levels", b.Name)
			}
			pr.checkMs += ms(sp.end(id))
			if err != nil {
				return nil, err
			}
		}
	}

	// Compiled engines: compile and one fault-free run per program.
	for rep := 0; rep < w.probeReps; rep++ {
		for _, p := range progs {
			var icp *irc.Program
			var mcp *mc.Program
			var err error
			pr.ircCompile = append(pr.ircCompile, ms(sp.time("irc", "irc.Compile "+p.Name, func() { icp, err = irc.Compile(p.Prep) })))
			if err == nil {
				err = engine("irc", "irc.Run "+p.Name, func() (uint64, error) {
					r := irc.NewRunner(icp, io.Discard)
					_, err := r.Run()
					return r.Executed(), err
				})
			}
			if err != nil {
				return nil, fmt.Errorf("%s: irc: %w", p.Name, err)
			}
			pr.mcCompile = append(pr.mcCompile, ms(sp.time("mc", "mc.Compile "+p.Name, func() {
				mcp, err = mc.Compile(p.Asm, p.Prep.Layout.Image, p.Prep.Layout.Base)
			})))
			if err == nil {
				err = engine("mc", "mc.Run "+p.Name, func() (uint64, error) {
					e := mc.New(mcp, io.Discard)
					_, err := e.Run()
					return e.Executed(), err
				})
			}
			if err != nil {
				return nil, fmt.Errorf("%s: mc: %w", p.Name, err)
			}
		}
	}

	// A seeded sample of cells per level: injector construction,
	// snapshot capture, restores, and attempts armed as the defaults arm
	// them.
	cells := grid(progs)
	rng := rand.New(rand.NewSource(mix(uint64(seed), 0x9E0BE)))
	for _, level := range []fault.Level{fault.LevelIR, fault.LevelASM} {
		var pool []core.CellKey
		for _, k := range cells {
			if k.Level == level {
				pool = append(pool, k)
			}
		}
		rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
		for _, k := range pool[:w.probeCells] {
			if err := probeCell(w, pr, sp, ref, k, core.CellSeed(seed, k)); err != nil {
				return nil, err
			}
		}
	}

	// Simulated memory: aligned in-page accesses over the mapped ranges
	// of each program's real golden-run image.
	var reads, writes, snaps, clones int
	var readT, writeT, snapT, cloneT time.Duration
	for _, p := range progs {
		r := interp.NewRunner(p.Prep, io.Discard)
		if _, err := r.Run(); err != nil {
			return nil, err
		}
		m := r.Memory()
		addrs := alignedAddrs(m.MappedRanges(), rng, 4096)
		n := w.memOps / len(progs)
		var sink uint64
		readT += sp.time("mem", "mem.Read "+p.Name, func() {
			for i := 0; i < n; i++ {
				v, _ := m.Read(addrs[i&4095], 8)
				sink += v
			}
		})
		writeT += sp.time("mem", "mem.Write "+p.Name, func() {
			for i := 0; i < n; i++ {
				_ = m.Write(addrs[i&4095], 8, sink+uint64(i))
			}
		})
		reads, writes = reads+n, writes+n
		k := 1 + n/2000
		var frozen *mem.Memory
		snapT += sp.time("mem", "mem.Snapshot "+p.Name, func() {
			for i := 0; i < k; i++ {
				frozen = m.Snapshot()
			}
		})
		cloneT += sp.time("mem", "mem.Clone "+p.Name, func() {
			for i := 0; i < 4*k; i++ {
				_ = frozen.Clone()
			}
		})
		snaps, clones = snaps+k, clones+4*k
	}
	pr.readNs = float64(readT) / float64(reads)
	pr.writeNs = float64(writeT) / float64(writes)
	pr.snapshotUs = float64(snapT) / 1e3 / float64(snaps)
	pr.cloneUs = float64(cloneT) / 1e3 / float64(clones)
	return pr, nil
}

// probeCell measures one cell's injector layers.
func probeCell(w *workload, pr *probes, sp *spans, ref *reference, k core.CellKey, seed int64) error {
	p := ref.progs[k.Prog]
	ms := func(d time.Duration) float64 { return float64(d) / 1e6 }
	var injectOne func(*rand.Rand)
	var err error
	switch k.Level {
	case fault.LevelIR:
		var inj *llfi.Injector
		pr.llfiNew = append(pr.llfiNew, ms(sp.time("llfi", "llfi.New "+cellName(k), func() { inj, err = llfi.New(p.Prep, k.Category) })))
		if err != nil {
			return err
		}
		var snaps []*interp.Snapshot
		pr.capture = append(pr.capture, ms(sp.time("replay", "llfi.CaptureSnapshots "+p.Name, func() {
			snaps, err = llfi.CaptureSnapshots(p.Prep, snapshotStride(inj.GoldenInstrs))
		})))
		if err != nil {
			return err
		}
		cp := ref.irc[p.Name]
		for _, s := range spread(snaps, 16) {
			pr.restore = append(pr.restore, float64(sp.time("replay", "irc.NewRunnerFromSnapshot "+p.Name, func() {
				if cp != nil {
					_ = irc.NewRunnerFromSnapshot(cp, s, io.Discard)
				} else {
					_ = interp.NewRunnerFromSnapshot(p.Prep, s, io.Discard)
				}
			}))/1e3)
		}
		inj.UseSnapshots(snaps, nil)
		if cp != nil {
			inj.UseCompiled(cp)
		}
		injectOne = func(rng *rand.Rand) {
			pr.llfiAttempt = append(pr.llfiAttempt, ms(sp.time("llfi", "llfi.InjectOne", func() { inj.InjectOne(rng) })))
		}
	default:
		var inj *pinfi.Injector
		img, base := p.Prep.Layout.Image, p.Prep.Layout.Base
		pr.pinfiNew = append(pr.pinfiNew, ms(sp.time("pinfi", "pinfi.New "+cellName(k), func() { inj, err = pinfi.New(p.Asm, img, base, k.Category) })))
		if err != nil {
			return err
		}
		var snaps []*machine.Snapshot
		pr.capture = append(pr.capture, ms(sp.time("replay", "pinfi.CaptureSnapshots "+p.Name, func() {
			snaps, err = pinfi.CaptureSnapshots(p.Asm, img, base, snapshotStride(inj.GoldenInstrs))
		})))
		if err != nil {
			return err
		}
		cp := ref.mc[p.Name]
		for _, s := range spread(snaps, 16) {
			pr.restore = append(pr.restore, float64(sp.time("replay", "mc.NewFromSnapshot "+p.Name, func() {
				if cp != nil {
					_ = mc.NewFromSnapshot(cp, s, io.Discard)
				} else {
					_ = machine.NewFromSnapshot(p.Asm, s, io.Discard)
				}
			}))/1e3)
		}
		inj.UseSnapshots(snaps, nil)
		if cp != nil {
			inj.UseCompiled(cp)
		}
		injectOne = func(rng *rand.Rand) {
			pr.pinfiAttempt = append(pr.pinfiAttempt, ms(sp.time("pinfi", "pinfi.InjectOne", func() { inj.InjectOne(rng) })))
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < w.probeAttempts; i++ {
		injectOne(rng)
	}
	return nil
}

func cellName(k core.CellKey) string {
	return k.Prog + "/" + k.Level.String() + "/" + k.Category.String()
}

// spread picks up to n items evenly over xs.
func spread[T any](xs []T, n int) []T {
	if len(xs) <= n {
		return xs
	}
	out := make([]T, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// alignedAddrs draws n 8-byte-aligned addresses uniformly over the
// mapped pages (every such access stays inside one page).
func alignedAddrs(ranges [][2]uint64, rng *rand.Rand, n int) []uint64 {
	var total uint64
	for _, r := range ranges {
		total += r[1] - r[0]
	}
	out := make([]uint64, n)
	for i := range out {
		off := uint64(rng.Int63n(int64(total/8))) * 8
		for _, r := range ranges {
			if size := r[1] - r[0]; off < size {
				out[i] = r[0] + off
				break
			} else {
				off -= size
			}
		}
	}
	return out
}

// perLayerUnits lists every per-layer metric with its unit, in the order
// BENCHMARK.json declares them.
var perLayerUnits = []struct{ name, unit string }{
	{"minic.compile_ms", "ms"}, {"interp.prepare_ms", "ms"}, {"codegen.lower_ms", "ms"},
	{"core.golden_check_ms", "ms"}, {"codegen.static_instrs", "count"},
	{"llfi.new_ms", "ms"}, {"pinfi.new_ms", "ms"}, {"core.scan_ms_per_cell", "ms"}, {"core.scan_share", "ratio"},
	{"replay.capture_ms", "ms"}, {"replay.restore_us", "us"}, {"replay.hit_ratio", "ratio"},
	{"replay.skipped_instr_share", "ratio"}, {"replay.cache_mb", "MiB"},
	{"interp.minstr_per_s", "Minstr/s"}, {"machine.minstr_per_s", "Minstr/s"}, {"interp.alloc_kb_per_run", "KiB"},
	{"irc.minstr_per_s", "Minstr/s"}, {"mc.minstr_per_s", "Minstr/s"}, {"irc.alloc_kb_per_run", "KiB"},
	{"irc.compile_ms", "ms"}, {"mc.compile_ms", "ms"},
	{"mem.read_ns", "ns"}, {"mem.write_ns", "ns"}, {"mem.clone_us", "us"}, {"mem.snapshot_us", "us"},
	{"llfi.attempt_ms.p50", "ms"}, {"llfi.attempt_ms.tail", "ms"}, {"pinfi.attempt_ms.p50", "ms"},
	{"pinfi.attempt_ms.tail", "ms"}, {"core.attempts_per_activated", "ratio"},
	{"core.cell_ms.p50", "ms"}, {"core.cell_ms.tail", "ms"}, {"sched.effective_concurrency", "ratio"}, {"sched.tail_s", "s"},
	{"adaptive.stopped_cells", "count"}, {"adaptive.extended_cells", "count"},
	{"adaptive.reexecuted_attempts", "count"}, {"adaptive.round2_s", "s"},
	{"fleet.lease_ms", "ms"}, {"fleet.heartbeat_ms", "ms"}, {"fleet.complete_ms", "ms"},
	{"fleet.wait_replies", "count"}, {"fleet.idle_s", "s"}, {"fleet.overhead_ms_per_cell", "ms"},
	{"fleet.requests_per_cell", "ratio"},
	{"self_ms.minic", "ms"}, {"self_ms.interp", "ms"}, {"self_ms.codegen", "ms"}, {"self_ms.core", "ms"},
	{"self_ms.machine", "ms"}, {"self_ms.llfi", "ms"}, {"self_ms.pinfi", "ms"}, {"self_ms.replay", "ms"},
	{"self_ms.irc", "ms"}, {"self_ms.mc", "ms"}, {"self_ms.mem", "ms"}, {"self_ms.fleet", "ms"},
	{"trace.overhead_wall_pct", "%"}, {"trace.overhead_cpu_pct", "%"},
}

// layerMetrics fills the per-layer metrics from the traced rounds, the
// probes, and the spans. A layer the workload does not cross reads 0.
func layerMetrics(out map[string]metric, w *workload, rounds []*round, pr *probes, sp *spans) {
	v := map[string]float64{}
	reps := float64(pr.reps)
	v["minic.compile_ms"] = pr.compileMs / reps
	v["interp.prepare_ms"] = pr.prepareMs / reps
	v["codegen.lower_ms"] = pr.lowerMs / reps
	v["core.golden_check_ms"] = pr.checkMs / reps
	v["codegen.static_instrs"] = float64(pr.staticInstrs)
	v["llfi.new_ms"] = median(pr.llfiNew)
	v["pinfi.new_ms"] = median(pr.pinfiNew)
	v["replay.capture_ms"] = median(pr.capture)
	v["replay.restore_us"] = median(pr.restore)
	rate := func(e string) float64 { return float64(pr.instrs[e]) / 1e6 / pr.busy[e] }
	v["interp.minstr_per_s"], v["machine.minstr_per_s"] = rate("interp"), rate("machine")
	v["irc.minstr_per_s"], v["mc.minstr_per_s"] = rate("irc"), rate("mc")
	v["interp.alloc_kb_per_run"] = float64(pr.alloc["interp"]) / 1024 / float64(pr.runs["interp"])
	v["irc.alloc_kb_per_run"] = float64(pr.alloc["irc"]) / 1024 / float64(pr.runs["irc"])
	v["irc.compile_ms"], v["mc.compile_ms"] = median(pr.ircCompile), median(pr.mcCompile)
	v["mem.read_ns"], v["mem.write_ns"] = pr.readNs, pr.writeNs
	v["mem.clone_us"], v["mem.snapshot_us"] = pr.cloneUs, pr.snapshotUs
	v["llfi.attempt_ms.p50"], v["llfi.attempt_ms.tail"] = median(pr.llfiAttempt), tail(pr.llfiAttempt)
	v["pinfi.attempt_ms.p50"], v["pinfi.attempt_ms.tail"] = median(pr.pinfiAttempt), tail(pr.pinfiAttempt)

	// The traced rounds: the program's own accounting.
	var cellMs, scanMs []float64
	var attempts, act, traced int
	var hits, misses, skipped, replayed uint64
	var cacheMB, concurrency, tailS, round2 float64
	var stopped, extended, reexec int
	var waits, reqs, cellsSeen int
	var idle time.Duration
	var lease, hb, complete []float64
	var handlerMs float64
	var tracedWall, untracedWall, tracedCPU, untracedCPU []float64
	for _, r := range rounds {
		a := activated(r.study)
		perAct := func(d time.Duration) float64 { return d.Seconds() * 1000 / float64(a) }
		if !r.traced {
			untracedWall, untracedCPU = append(untracedWall, perAct(r.cost.wall)), append(untracedCPU, perAct(r.cost.cpu))
			continue
		}
		tracedWall, tracedCPU = append(tracedWall, perAct(r.cost.wall)), append(tracedCPU, perAct(r.cost.cpu))
		traced++
		in := r.inst
		for _, c := range r.study.Cells {
			act += c.Activated()
			attempts += c.Attempts
			if c.Adaptive.Converged && !c.Adaptive.Extended {
				stopped++
			}
			if c.Adaptive.Extended {
				extended++
				reexec += c.Adaptive.Round1.Attempts
			}
		}
		attempts += reexecuted(r.study)
		for _, e := range in.events.events {
			if e.Type == telemetry.EventCellDone {
				cellMs = append(cellMs, e.DurationMS)
				scanMs = append(scanMs, e.ScanMS)
			}
		}
		// Cell lanes from the timeline: study cells and extensions, or
		// the workers' exec spans in a fleet.
		var lanesSp []trace.Record
		var extStart, extEnd int64
		for _, s := range in.trace.Snapshot() {
			switch s.Kind {
			case trace.KindCell, trace.KindExtension:
				if !w.fleet {
					lanesSp = append(lanesSp, s)
				}
				if s.Kind == trace.KindExtension {
					if extStart == 0 || s.Start < extStart {
						extStart = s.Start
					}
					if s.End > extEnd {
						extEnd = s.End
					}
				}
			case trace.KindExec:
				lanesSp = append(lanesSp, s)
				if w.fleet {
					cellMs = append(cellMs, float64(s.End-s.Start)/1e6)
				}
			}
		}
		busy := 0.0
		for _, s := range lanesSp {
			busy += float64(s.End-s.Start) / 1e9
		}
		concurrency += busy / r.cost.wall.Seconds()
		tailS += laneTail(lanesSp)
		if extEnd > extStart {
			round2 += float64(extEnd-extStart) / 1e9
		}
		if in.replay != nil {
			hits, misses = hits+in.replay.Hits(), misses+in.replay.Misses()
			skipped, replayed = skipped+in.replay.SkippedInstrs(), replayed+in.replay.ReplayedInstrs()
			if mb := float64(in.replay.CacheBytes()) / (1 << 20); mb > cacheMB {
				cacheMB = mb
			}
		}
		if fs := in.fleet; fs != nil {
			waits += fs.waits
			idle += fs.idle
			reqs += fs.requests
			cellsSeen += len(r.study.Cells)
			lease = append(lease, fs.ms["/lease"]...)
			hb = append(hb, fs.ms["/heartbeat"]...)
			complete = append(complete, fs.ms["/complete"]...)
			for _, h := range fs.sp {
				handlerMs += float64(h.end.Sub(h.start)) / 1e6
				sp.add("fleet", "fleet.handler "+h.path, h.start, h.end)
			}
		}
	}
	nt := float64(traced)
	v["core.attempts_per_activated"] = float64(attempts) / float64(act)
	if w.fleet {
		// Fleet workers report no cell metrics; the scan cost per cell is
		// the probed injector construction, set against the exec time.
		scan := (median(pr.llfiNew) + median(pr.pinfiNew)) / 2
		v["core.scan_ms_per_cell"] = scan
		v["core.scan_share"] = scan * float64(len(cellMs)) / sum(cellMs)
	} else {
		v["core.scan_ms_per_cell"] = mean(scanMs)
		v["core.scan_share"] = sum(scanMs) / sum(cellMs)
	}
	v["core.cell_ms.p50"], v["core.cell_ms.tail"] = median(cellMs), tail(cellMs)
	v["sched.effective_concurrency"] = concurrency / nt
	v["sched.tail_s"] = tailS / nt
	if hits+misses > 0 {
		v["replay.hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	if skipped+replayed > 0 {
		v["replay.skipped_instr_share"] = float64(skipped) / float64(skipped+replayed)
	}
	v["replay.cache_mb"] = cacheMB
	v["adaptive.stopped_cells"] = float64(stopped) / nt
	v["adaptive.extended_cells"] = float64(extended) / nt
	v["adaptive.reexecuted_attempts"] = float64(reexec) / nt
	v["adaptive.round2_s"] = round2 / nt
	if w.fleet {
		v["fleet.lease_ms"], v["fleet.heartbeat_ms"], v["fleet.complete_ms"] = median(lease), median(hb), median(complete)
		v["fleet.wait_replies"] = float64(waits) / nt
		v["fleet.idle_s"] = idle.Seconds() / nt
		v["fleet.overhead_ms_per_cell"] = handlerMs / float64(cellsSeen)
		v["fleet.requests_per_cell"] = float64(reqs) / float64(cellsSeen)
	}
	for layer, d := range sp.selfTimes() {
		v["self_ms."+layer] = float64(d) / 1e6
	}
	v["trace.overhead_wall_pct"] = 100 * (median(tracedWall)/median(untracedWall) - 1)
	v["trace.overhead_cpu_pct"] = 100 * (median(tracedCPU)/median(untracedCPU) - 1)
	for _, m := range perLayerUnits {
		out[m.name] = metric{v[m.name], m.unit}
	}
}

// laneTail is the time from the first lane going idle with nothing left
// to start (the first end after the last start) to the last end.
func laneTail(sp []trace.Record) float64 {
	if len(sp) == 0 {
		return 0
	}
	var lastStart, lastEnd int64
	for _, s := range sp {
		if s.Start > lastStart {
			lastStart = s.Start
		}
		if s.End > lastEnd {
			lastEnd = s.End
		}
	}
	ends := make([]int64, 0, len(sp))
	for _, s := range sp {
		if s.End >= lastStart {
			ends = append(ends, s.End)
		}
	}
	sort.Slice(ends, func(i, j int) bool { return ends[i] < ends[j] })
	return float64(lastEnd-ends[0]) / 1e9
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
