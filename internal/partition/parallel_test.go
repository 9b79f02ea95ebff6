package partition

import (
	"math/rand"
	"runtime"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
)

// engineConfig names one engine construction under test.
type engineConfig struct {
	name string
	opts []Option
}

func parallelConfigs() []engineConfig {
	return []engineConfig{
		{"serial", []Option{WithWorkers(1)}},
		{"workers4", []Option{WithWorkers(4)}},
		{"workers8-stitched", []Option{WithWorkers(8), WithStitchedQueries()}},
	}
}

// drive applies nBatches random data batches through ApplyDataBatch and
// returns the per-batch change logs; the engine's graph evolves in place.
func drive(t *testing.T, e *Engine, g *graph.Graph, seed int64, nBatches, perBatch int) []string {
	t.Helper()
	p := pattern.New(g.Labels())
	logs := make([]string, 0, nBatches)
	for i := 0; i < nBatches; i++ {
		b := updates.Generate(updates.Balanced(seed+int64(i), 0, perBatch), g, p)
		_, changeLog, _ := e.ApplyDataBatch(b.D, g)
		logs = append(logs, changeLog.String())
	}
	return logs
}

// TestParallelEngineMatchesSerial drives identical random batch streams
// through a serial engine and parallel engines (BFS-cached and stitched)
// and requires identical distances, ball rows and change logs after
// every batch — the differential guard for the worker pool.
func TestParallelEngineMatchesSerial(t *testing.T) {
	horizons := []int{0, 3}
	trials := 4
	if testing.Short() {
		trials = 2
	}
	for _, horizon := range horizons {
		for trial := 0; trial < trials; trial++ {
			rng := rand.New(rand.NewSource(int64(9000 + trial)))
			base := homophilousGraph(rng, 60, 160, 5, 0.8)

			type run struct {
				cfg engineConfig
				g   *graph.Graph
				e   *Engine
				log []string
			}
			var runs []run
			for _, cfg := range parallelConfigs() {
				g := base.Clone()
				e := NewEngine(g, horizon, cfg.opts...)
				e.Build()
				runs = append(runs, run{cfg: cfg, g: g, e: e})
			}
			for i := range runs {
				runs[i].log = drive(t, runs[i].e, runs[i].g, int64(trial*31), 3, 12)
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
// workload, forced GOMAXPROCS > 1 so the pool truly interleaves, and a
// wide pool. Skipped with -short; run it under -race.
func TestParallelEngineStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress variant skipped in -short mode")
	}
	prev := runtime.GOMAXPROCS(0)
	if prev < 4 {
		runtime.GOMAXPROCS(4)
		defer runtime.GOMAXPROCS(prev)
	}
	rng := rand.New(rand.NewSource(4242))
	base := homophilousGraph(rng, 150, 500, 7, 0.85)
	horizon := 3

	gs := base.Clone()
	serial := NewEngine(gs, horizon, WithWorkers(1))
	serial.Build()
	gp := base.Clone()
	par := NewEngine(gp, horizon, WithWorkers(8))
	par.Build()

	p := pattern.New(base.Labels())
	for i := 0; i < 5; i++ {
		b := updates.Generate(updates.Balanced(int64(7000+i), 0, 40), gs, p)
		_, logS, _ := serial.ApplyDataBatch(b.D, gs)
		_, logP, _ := par.ApplyDataBatch(b.D, gp)
		if !logS.Equal(logP) {
			t.Fatalf("batch %d: change log diverged: parallel %v, serial %v", i, logP, logS)
		}
	}
	assertEnginesAgree(t, serial, par, gp, "workers8-stress")
}
