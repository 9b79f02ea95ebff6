package partition

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// engineConfig names one engine construction under test and the pool
// width it runs at.
type engineConfig struct {
	name  string
	procs int
	opts  []Option
}

func parallelConfigs() []engineConfig {
	return []engineConfig{
		{"serial", 1, nil},
		{"procs4", 4, nil},
		{"procs8-stitched", 8, []Option{WithStitchedQueries()}},
	}
}

// step applies one random data batch through ApplyData and returns its
// change log, members and depths; the engine's graph evolves in place.
func step(e *Engine, g *graph.Graph, seed int64, perBatch int) string {
	b := updates.Generate(updates.Balanced(seed, 0, perBatch), g, pattern.New(g.Labels()))
	changeLog, _ := e.ApplyData(b.D, g)
	return fmt.Sprint(changeLog)
}

// TestParallelEngineMatchesSerial drives identical random batch streams
// through a serial engine and parallel engines (BFS-cached and stitched)
// and requires identical distances, ball rows and change logs after
// every batch — the differential guard for the worker pool. The width
// flips around each engine's step, so the engines' batches interleave
// serial and wide.
func TestParallelEngineMatchesSerial(t *testing.T) {
	horizons := []int{0, 3}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for _, horizon := range horizons {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			base := testkit.Shape{Nodes: 60, Edges: 160, Labels: 5, Homophily: 0.8}.Graph(rng.Int63())

			type run struct {
				cfg engineConfig
				g   *graph.Graph
				e   *Engine
				log []string
			}
			var runs []run
			for _, cfg := range parallelConfigs() {
				testkit.WithProcs(t, cfg.procs)
				g := base.Clone()
				e := NewEngine(g, horizon, cfg.opts...)
				e.Build()
				runs = append(runs, run{cfg: cfg, g: g, e: e})
			}
			for b := 0; b < 3; b++ {
				for i := range runs {
					testkit.WithProcs(t, runs[i].cfg.procs)
					runs[i].log = append(runs[i].log, step(runs[i].e, runs[i].g, int64(trial*31+b), 12))
				}
			}

			ref := runs[0]
			for _, r := range runs[1:] {
				for bi := range ref.log {
					if r.log[bi] != ref.log[bi] {
						t.Fatalf("h=%d trial %d %s: batch %d change log %s, serial %s",
							horizon, trial, r.cfg.name, bi, r.log[bi], ref.log[bi])
					}
				}
				assertEnginesAgree(t, ref.e, r.e, r.g, r.cfg.name)
			}
		}
	}
}

// assertEnginesAgree compares two engines entry for entry: all-pairs
// Dist plus full forward/reverse rows for every node, as (id → distance)
// maps — the order of a ball is the engine's own business.
func assertEnginesAgree(t *testing.T, want, got *Engine, g *graph.Graph, name string) {
	t.Helper()
	n := g.NumIDs()
	k := want.capHops()
	for x := uint32(0); int(x) < n; x++ {
		for y := uint32(0); int(y) < n; y++ {
			if dw, dg := want.Dist(x, y), got.Dist(x, y); dw != dg {
				t.Fatalf("%s: Dist(%d,%d) = %d, serial %d", name, x, y, dg, dw)
			}
		}
		for _, reverse := range []bool{false, true} {
			w, gt := ballMap(t, want, x, k, reverse), ballMap(t, got, x, k, reverse)
			if len(w) != len(gt) {
				t.Fatalf("%s: ball(%d, rev=%v) size %d, serial %d", name, x, reverse, len(gt), len(w))
			}
			for id, d := range w {
				if gd, ok := gt[id]; !ok || gd != d {
					t.Fatalf("%s: ball(%d, rev=%v)[%d] = %d (present %v), serial %d", name, x, reverse, id, gd, ok, d)
				}
			}
		}
	}
}

// TestParallelEngineStress is the race-hunting variant: a larger
// workload, a serial engine against an 8-wide one (GOMAXPROCS flipped
// around each step, so the pool truly interleaves). Skipped with -short;
// run it under -race.
func TestParallelEngineStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress variant skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(4242))
	base := testkit.Shape{Nodes: 150, Edges: 500, Labels: 7, Homophily: 0.85}.Graph(rng.Int63())
	horizon := 3

	testkit.WithProcs(t, 1)
	gs := base.Clone()
	serial := NewEngine(gs, horizon)
	serial.Build()
	testkit.WithProcs(t, 8)
	gp := base.Clone()
	par := NewEngine(gp, horizon)
	par.Build()

	p := pattern.New(base.Labels())
	for i := 0; i < 5; i++ {
		b := updates.Generate(updates.Balanced(int64(7000+i), 0, 40), gs, p)
		testkit.WithProcs(t, 1)
		logS, _ := serial.ApplyData(b.D, gs)
		testkit.WithProcs(t, 8)
		logP, _ := par.ApplyData(b.D, gp)
		if !reflect.DeepEqual(logS, logP) {
			t.Fatalf("batch %d: change log diverged: parallel %v, serial %v", i, logP, logS)
		}
	}
	assertEnginesAgree(t, serial, par, gp, "procs8-stress")
}
