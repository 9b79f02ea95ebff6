package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"uagpnm"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
)

// testSizes are small enough for -race and large enough that churn has
// room to work.
var testSizes = sizes{Graph: graphSpec{600, 2400, 8, 0.85}, Horizon: 3, Patterns: 6, PatNodes: 5, PatEdges: 5,
	DeltaD: 30, DeltaP: 8, Cycle: 4}

// dump renders generated inputs to bytes.
func dump(in *inputs, stream [][]uagpnm.Update) []byte {
	var b bytes.Buffer
	in.G0.WriteEdgeList(&b)
	in.G0.WriteLabels(&b)
	for _, ws := range [][]*witnessed{in.Queries, in.Probes} {
		for _, w := range ws {
			w.P.Format(&b)
			fmt.Fprintln(&b, w.Witness, w.Toggle)
		}
	}
	for _, batch := range in.Batches {
		fmt.Fprintln(&b, batch.D, batch.P)
	}
	for _, d := range stream {
		fmt.Fprintln(&b, d)
	}
	return b.Bytes()
}

func churnStream(in *inputs, n int) [][]uagpnm.Update {
	c := newChurn(in.G0.Clone(), rand.New(rand.NewSource(in.Seed)))
	var out [][]uagpnm.Update
	for i := 0; i < n; i++ {
		out = append(out, c.batch(in.Sz.DeltaD))
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := generate(7, testSizes), generate(7, testSizes)
	da, db := dump(a, churnStream(a, 20)), dump(b, churnStream(b, 20))
	if !bytes.Equal(da, db) {
		t.Fatal("the same seed generated different inputs")
	}
	c := generate(8, testSizes)
	if bytes.Equal(da, dump(c, churnStream(c, 20))) {
		t.Fatal("a different seed generated the same update streams")
	}
}

func TestChurnIsStationary(t *testing.T) {
	in := generate(3, testSizes)
	mirror := in.G0.Clone()
	c := newChurn(mirror, rand.New(rand.NewSource(3)))
	before := shapeOf(mirror)
	for i := 0; i < 200; i++ {
		if got := len(c.batch(testSizes.DeltaD)); got != testSizes.DeltaD {
			t.Fatalf("batch %d has %d updates, want %d", i, got, testSizes.DeltaD)
		}
	}
	after := shapeOf(mirror)
	within := func(what string, was, is float64) {
		t.Helper()
		if math.Abs(is-was) > 0.05*was {
			t.Errorf("%s drifted from %v to %v over 200 batches", what, was, is)
		}
	}
	within("|V|", float64(before.Nodes), float64(after.Nodes))
	within("|E|", float64(before.Edges), float64(after.Edges))
	within("cross-label edge fraction", before.CrossLabel, after.CrossLabel)
	for label, n := range before.LabelHist {
		within("label "+label, float64(n), float64(after.LabelHist[label]))
	}
}

func TestWitnessedPatternsAreTotal(t *testing.T) {
	in := generate(5, testSizes)
	eng := shortest.NewEngine(in.G0, testSizes.Horizon)
	eng.Build()
	for i, w := range append(in.Queries, in.Probes...) {
		if !simulation.Run(w.P, in.G0, eng).Total() {
			t.Errorf("pattern %d is not totally matched on the graph it was sampled from", i)
		}
		p := w.P.Clone()
		if !p.AddEdge(w.Toggle.From, w.Toggle.To, w.Toggle.Bound) {
			t.Errorf("pattern %d already holds its toggle edge", i)
		}
		if !simulation.Run(p, in.G0, eng).Total() {
			t.Errorf("pattern %d is not totally matched with its toggle edge inserted", i)
		}
	}
	// A session batch's pattern side keeps its pattern total too.
	for i, b := range in.Batches {
		s := uagpnm.NewSession(in.G0.Clone(), in.Queries[0].P.Clone(), uagpnm.Options{Method: uagpnm.Scratch, Horizon: testSizes.Horizon})
		if !s.SQuery(uagpnm.Batch{P: b.P}).Total() {
			t.Errorf("session batch %d's pattern updates leave the pattern untotal", i)
		}
	}
}

// TestQuickRunsEveryWorkload is the -quick mode end to end: all four
// workloads, both modes, correct results, and exactly the metrics
// BENCHMARK.json promises.
func TestQuickRunsEveryWorkload(t *testing.T) {
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	endToEnd, perLayer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	spans := t.TempDir()
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name {
			t.Errorf("BENCHMARK.json workload %d is %q, want %q", i, spec.Workloads[i].Name, w.Name)
		}
		for _, traced := range []bool{false, true} {
			r, err := run(runConfig{Workload: w, Seed: 1, Seconds: 0.15, Trace: traced, Quick: true, SpansDir: spans})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !r.passed() {
				r.print()
				t.Errorf("%s traced=%v: a gate failed", w.Name, traced)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			for name, m := range r.Metrics {
				if unit, ok := want[name]; !ok || unit != m.Unit {
					t.Errorf("%s traced=%v reports %s [%s], BENCHMARK.json says [%s] (listed: %v)", w.Name, traced, name, m.Unit, unit, ok)
				}
			}
			for name := range want {
				if _, ok := r.Metrics[name]; !ok {
					t.Errorf("%s traced=%v does not report %s", w.Name, traced, name)
				}
			}
			if _, err := json.Marshal(r); err != nil {
				t.Errorf("%s traced=%v: result does not encode: %v", w.Name, traced, err)
			}
		}
		if _, err := os.Stat(filepath.Join(spans, fmt.Sprintf("spans-%s-1.json", w.Name))); err != nil {
			t.Errorf("%s: spans were not written: %v", w.Name, err)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

func TestCompareJudgesByBounds(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		t.Helper()
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w"}},
		"end_to_end": []map[string]any{
			{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
			{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
		},
	})
	file := func(name string, latency, rate []float64, failed int) string {
		var f resultFile
		for i := range latency {
			f.Runs = append(f.Runs, &runResult{Workload: "w", Attempted: 100, Failed: failed, Metrics: map[string]metric{
				"latency_ms": {latency[i], "ms"}, "rate": {rate[i], "1/s"}}})
		}
		return write(name, f)
	}
	steady := []float64{100, 101, 99, 100, 100}
	base := file("base.json", steady, steady, 0)
	cases := []struct {
		name          string
		latency, rate []float64
		failed, exit  int
	}{
		{"same", steady, steady, 0, 0},
		{"slower", []float64{120, 121, 119, 120, 120}, steady, 0, 1},
		{"lower rate", steady, []float64{80, 81, 79, 80, 80}, 0, 1},
		{"within bound", []float64{105, 106, 104, 105, 105}, steady, 0, 0},
		{"too noisy to tell", []float64{60, 200, 90, 150, 120}, steady, 0, 0},
		{"more failures", steady, steady, 1, 1},
	}
	for _, c := range cases {
		if got := compareFiles(spec, base, file("new.json", c.latency, c.rate, c.failed)); got != c.exit {
			t.Errorf("%s: exit code %d, want %d", c.name, got, c.exit)
		}
	}
}
