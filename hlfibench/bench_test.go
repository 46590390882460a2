package main

import (
	"bytes"
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"

	"hlfi/internal/bench"
	"hlfi/internal/core"
	"hlfi/internal/fault"
)

var endToEndNames = []string{
	"activated_per_s", "cpu_ms_per_activated", "alloc_kb_per_activated",
	"setup_s", "peak_rss_mb", "worst_halfwidth_pct",
}

type printed struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// TestQuickWorkloads runs every workload in quick mode, untraced and
// traced, and holds the output contract: the result is the last line,
// correct, with no failed cells and exactly the declared metric set.
func TestQuickWorkloads(t *testing.T) {
	var layerNames []string
	for _, m := range perLayerUnits {
		layerNames = append(layerNames, m.name)
	}
	for _, wl := range []string{"study", "survey", "adaptive", "fleet"} {
		for _, tr := range []string{"0", "1"} {
			t.Run(wl+"/trace="+tr, func(t *testing.T) {
				var out, errb bytes.Buffer
				code := run([]string{"--workload", wl, "--quick", "--seed", "7", "--trace", tr, "--scratch", t.TempDir()}, &out, &errb)
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				if code != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
				}
				var res printed
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v", err)
				}
				if !res.Correct || res.Attempted < 60 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				want := endToEndNames
				if tr == "1" {
					want = layerNames
				}
				if got := keys(res.Metrics); !equalSets(got, want) {
					t.Fatalf("metrics %v, want %v", got, want)
				}
			})
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if !equalSets(e2e, endToEndNames) {
		t.Fatalf("BENCHMARK.json end_to_end %v, benchmark prints %v", e2e, endToEndNames)
	}
	if len(spec.PerLayer) != len(perLayerUnits) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, benchmark prints %d", len(spec.PerLayer), len(perLayerUnits))
	}
	for i, m := range spec.PerLayer {
		if m.Name != perLayerUnits[i].name || m.Unit != perLayerUnits[i].unit {
			t.Fatalf("per_layer[%d] = %s (%s), benchmark prints %s (%s)", i, m.Name, m.Unit, perLayerUnits[i].name, perLayerUnits[i].unit)
		}
	}
}

// TestChecksCatchWrongOutputs corrupts a correct study in the ways the
// checks exist for and requires each to be reported.
func TestChecksCatchWrongOutputs(t *testing.T) {
	w, err := lookupWorkload("study", true)
	if err != nil {
		t.Fatal(err)
	}
	progs, err := bench.BuildAll()
	if err != nil {
		t.Fatal(err)
	}
	ref, err := newReference(progs)
	if err != nil {
		t.Fatal(err)
	}
	r, err := w.runRound(progs, 5, 0, nil, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cells := grid(progs)
	if f := checkOutputs(w, 5, progs, cells, []*round{r}, ref); len(f) != 0 {
		t.Fatalf("correct study reported: %v", f)
	}
	k := core.CellKey{Prog: progs[0].Name, Level: fault.LevelASM, Category: fault.CatCmp}
	corrupt := map[string]func(st *core.Study){
		"table IV entry": func(st *core.Study) { st.Dyn[k]++ },
		"outcome count":  func(st *core.Study) { st.Cells[k].Crash++ },
		"skipped cell":   func(st *core.Study) { delete(st.Cells, k) },
		"outcome swap": func(st *core.Study) {
			for _, c := range st.Cells {
				if c.Benign > 0 {
					c.Benign--
					c.SDC++
				}
			}
		},
	}
	for name, f := range corrupt {
		st := copyStudy(r.study)
		f(st)
		w.reproCells = len(cells) // every cell, so the swap cannot hide
		if got := checkOutputs(w, 5, progs, cells, []*round{{seed: r.seed, study: st}}, ref); len(got) == 0 {
			t.Errorf("%s: not reported", name)
		}
	}
}

func copyStudy(st *core.Study) *core.Study {
	cp := *st
	cp.Cells, cp.Dyn = map[core.CellKey]*core.CellResult{}, map[core.CellKey]uint64{}
	for k, c := range st.Cells {
		c := *c
		cp.Cells[k] = &c
	}
	for k, v := range st.Dyn {
		cp.Dyn[k] = v
	}
	return &cp
}

func keys(m map[string]metric) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	return strings.Join(a, ",") == strings.Join(b, ",")
}
