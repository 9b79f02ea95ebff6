package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// makeBatch builds a consistent data-update batch against g: a few edge
// inserts and deletes, a node insert and a node delete.
func makeBatch(rng *rand.Rand, g *graph.Graph, live []uint32, newID, victim uint32) []updates.Update {
	var b []updates.Update
	for i := 0; i < 4; i++ {
		u := live[rng.Intn(len(live))]
		v := live[rng.Intn(len(live))]
		if u != v && !g.HasEdge(u, v) && u != victim && v != victim {
			b = append(b, updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v})
		}
	}
	for i := 0; i < 3; i++ {
		u := live[rng.Intn(len(live))]
		if out := g.Out(u); len(out) > 0 && u != victim {
			v := out[rng.Intn(len(out))]
			if v != victim && !inBatch(b, u, v) {
				b = append(b, updates.Update{Kind: updates.DataEdgeDelete, From: u, To: v})
			}
		}
	}
	b = append(b,
		updates.Update{Kind: updates.DataNodeInsert, Node: newID, Labels: []string{"A"}},
		updates.Update{Kind: updates.DataEdgeInsert, From: newID, To: live[0]},
		updates.Update{Kind: updates.DataNodeDelete, Node: victim},
	)
	return b
}

func inBatch(b []updates.Update, u, v uint32) bool {
	for _, x := range b {
		if x.From == u && x.To == v {
			return true
		}
	}
	return false
}

// applyOne applies u to g and e as a one-update batch and returns the
// update's affected set (nil when it changed nothing).
func applyOne(t testing.TB, e *Engine, g *graph.Graph, u updates.Update) nodeset.Set {
	t.Helper()
	per, _, err := e.ApplyDataBatch([]updates.Update{u}, g)
	if err != nil {
		t.Fatalf("%v: %v", u, err)
	}
	return per[0]
}

// applySingles replays a batch as one-update batches.
func applySingles(t testing.TB, b []updates.Update, g *graph.Graph, e *Engine) {
	t.Helper()
	for _, u := range b {
		applyOne(t, e, g, u)
	}
}

// insertEdge applies edge (u,v)'s insertion as a one-update batch.
func insertEdge(t testing.TB, e *Engine, g *graph.Graph, u, v uint32) nodeset.Set {
	t.Helper()
	return applyOne(t, e, g, updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v})
}

// deleteEdge applies edge (u,v)'s deletion as a one-update batch.
func deleteEdge(t testing.TB, e *Engine, g *graph.Graph, u, v uint32) nodeset.Set {
	t.Helper()
	return applyOne(t, e, g, updates.Update{Kind: updates.DataEdgeDelete, From: u, To: v})
}

// insertNode adds a node labelled label as a one-update batch and
// returns its id.
func insertNode(t testing.TB, e *Engine, g *graph.Graph, label string) uint32 {
	t.Helper()
	id := uint32(g.NumIDs())
	applyOne(t, e, g, updates.Update{Kind: updates.DataNodeInsert, Node: id, Labels: []string{label}})
	return id
}

// deleteNode deletes node id as a one-update batch.
func deleteNode(t testing.TB, e *Engine, g *graph.Graph, id uint32) nodeset.Set {
	t.Helper()
	return applyOne(t, e, g, updates.Update{Kind: updates.DataNodeDelete, Node: id})
}

// TestApplyDataBatchAffectedCoverage: the change log must hold the
// source of every pair whose distance actually changed, and every node
// the batch inserts or deletes — the seeding invariant of the
// single-pass amendment — on the partition engine and on the global
// engine the baselines run on, each over its own copy of the same graph
// and batch.
func TestApplyDataBatchAffectedCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		base := homophilousGraph(rng, 25, 75, 3, 0.8)
		var live []uint32
		base.Nodes(func(id uint32) { live = append(live, id) })
		batch := makeBatch(rng, base, live, uint32(base.NumIDs()), live[rng.Intn(len(live))])
		for _, global := range []bool{false, true} {
			g := base.Clone()
			var e shortest.DistanceEngine = NewEngine(g, 3)
			if global {
				e = shortest.NewEngine(g, 3)
			}
			e.Build()
			// Snapshot original distances.
			n0 := g.NumIDs()
			before := make(map[[2]uint32]uint16)
			for u := uint32(0); int(u) < n0; u++ {
				for v := uint32(0); int(v) < n0; v++ {
					before[[2]uint32{u, v}] = e.Dist(u, v)
				}
			}
			_, changeLog, err := e.ApplyDataBatch(batch, g)
			if err != nil {
				t.Fatal(err)
			}
			logBits := nodeset.NewBits(g.NumIDs())
			logBits.AddSet(changeLog)
			for u := uint32(0); int(u) < n0; u++ {
				for v := uint32(0); int(v) < n0; v++ {
					if before[[2]uint32{u, v}] != e.Dist(u, v) && !logBits.Contains(u) {
						t.Fatalf("trial %d (global %v): changed pair (%d,%d) has its source off the change log",
							trial, global, u, v)
					}
				}
			}
			for _, u := range batch {
				if (u.Kind == updates.DataNodeInsert || u.Kind == updates.DataNodeDelete) && !logBits.Contains(u.Node) {
					t.Fatalf("trial %d (global %v): %v is off the change log", trial, global, u)
				}
			}
		}
	}
}

// TestApplyDataBatchNoOps: updates that cannot apply (duplicate edges,
// dead targets) yield nil sets and leave the oracle consistent.
func TestApplyDataBatchNoOps(t *testing.T) {
	g, ids := fig4Graph()
	e := NewEngine(g, 0)
	e.Build()
	batch := []updates.Update{
		{Kind: updates.DataEdgeInsert, From: ids["SE1"], To: ids["SE2"]}, // exists
		{Kind: updates.DataEdgeDelete, From: ids["SE4"], To: ids["SE1"]}, // absent
		{Kind: updates.DataNodeDelete, Node: 9999},                       // unknown
	}
	perUpdate, changeLog, _ := e.ApplyDataBatch(batch, g)
	for i, s := range perUpdate {
		if s != nil {
			t.Errorf("no-op update %d produced set %v", i, s)
		}
	}
	if !changeLog.Empty() {
		t.Errorf("change log = %v, want empty", changeLog)
	}
	assertOracleAgrees(t, e, g, 0, -3)
}

// TestBatchPhaseSpans pins the phase spans a batch emits, which the
// repository benchmark reads by name, on every shape — the ball plane,
// the in-process §V plane and a two-worker fleet: pre_balls,
// oplog_flush, overlay_sync and post_balls, once each and in that order,
// each with one gpnm_batch_phase_seconds observation. The only other
// span a healthy batch may carry is a fleet's row_plan.
func TestBatchPhaseSpans(t *testing.T) {
	phases := []string{"pre_balls", "oplog_flush", "overlay_sync", "post_balls"}
	cfgs := append(shapes(), engineConfig{name: "fleet", opts: []Option{WithShards(httptestFleet(t, 2)...)}})
	for _, cfg := range cfgs {
		rng := rand.New(rand.NewSource(17))
		g := homophilousGraph(rng, 60, 240, 4, 0.8)
		reg := obs.NewRegistry()
		e := NewEngine(g, 3, append(cfg.opts, WithMetrics(reg))...)
		e.Build()
		observed := func(phase string) uint64 {
			return reg.Histogram("gpnm_batch_phase_seconds", "phase", phase).Count()
		}
		before := make([]uint64, len(phases))
		for i, phase := range phases {
			before[i] = observed(phase)
		}
		var live []uint32
		g.Nodes(func(id uint32) { live = append(live, id) })
		var tr obs.Trace
		e.SetTraceSink(&tr)
		if _, _, err := e.ApplyDataBatch(makeBatch(rng, g, live, uint32(g.NumIDs()), live[len(live)/2]), g); err != nil {
			t.Fatalf("%s: %v", cfg.name, err)
		}
		e.SetTraceSink(nil)
		var got []string
		for _, sp := range tr.Spans {
			switch {
			case slices.Contains(phases, sp.Name):
				got = append(got, sp.Name)
			case sp.Name != "row_plan" || !e.Remote():
				t.Fatalf("%s: the batch emitted a %q span", cfg.name, sp.Name)
			}
		}
		if !slices.Equal(got, phases) {
			t.Fatalf("%s: phase spans %v, want %v", cfg.name, got, phases)
		}
		for i, phase := range phases {
			if n := observed(phase) - before[i]; n != 1 {
				t.Fatalf("%s: %d observations of phase %s, want 1", cfg.name, n, phase)
			}
		}
	}
}

// TestChangeLogCoversMovedRows is the change log's completeness law, on
// every row shape at a capped and the exact horizon, over random churn
// batches: against the Floyd–Warshall reference before and after each
// batch, every source whose forward row moved is on the forward log (the
// change log ApplyDataBatch returns), every target whose reverse row
// moved is on the reverse log, and every node the batch inserted or
// deleted is on the forward log. The forward log must be smaller than
// the union of the per-update affected sets at least once, and some
// reverse row must move for a node off the forward log, so neither half
// holds vacuously.
func TestChangeLogCoversMovedRows(t *testing.T) {
	for _, horizon := range []int{3, 0} {
		for _, setup := range rowShapes {
			t.Run(fmt.Sprintf("%s/h%d", setup.name, horizon), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(4100 + horizon)))
				g := homophilousGraph(rng, 60, 100, 4, 0.7)
				e := NewEngine(g, horizon, setup.opts(t)...)
				e.Build()
				t.Cleanup(func() { _ = e.Close() })
				narrower, reverseOnly := 0, 0
				for batch := 0; batch < 12; batch++ {
					founding := ""
					if batch%4 == 3 {
						founding = fmt.Sprintf("new%d", batch)
					}
					ds, _ := churnBatch(rng, g, founding)
					before := newHopMatrix(g)
					wasAlive := make([]bool, g.NumIDs())
					for x := range wasAlive {
						wasAlive[x] = g.Alive(uint32(x))
					}
					perUpdate, logs, err := e.applyBatch(ds, g)
					if err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					after := newHopMatrix(g)
					for x := uint32(0); int(x) < g.NumIDs(); x++ {
						for d, reverse := range []bool{false, true} {
							moved := !sameRow(before.ball(x, unreachable-1, horizon, reverse), after.ball(x, unreachable-1, horizon, reverse))
							if dir := []string{"forward", "reverse"}[d]; moved && !logs[d].Contains(x) {
								t.Fatalf("batch %d: the %s row of %d moved off the %s log %v", batch, dir, x, dir, logs[d])
							}
							if moved && reverse && !logs[0].Contains(x) {
								reverseOnly++
							}
						}
					}
					var union nodeset.Set
					for i, u := range ds {
						union = union.Union(perUpdate[i])
						var changed bool
						switch u.Kind {
						case updates.DataNodeInsert:
							changed = g.Alive(u.Node)
						case updates.DataNodeDelete:
							changed = int(u.Node) < len(wasAlive) && wasAlive[u.Node]
						}
						if changed && !logs[0].Contains(u.Node) {
							t.Fatalf("batch %d: %v applied, and %d is not on the forward log %v", batch, u, u.Node, logs[0])
						}
					}
					if !union.Covers(logs[0]) {
						t.Fatalf("batch %d: forward log %v is not within the union of the affected sets %v", batch, logs[0], union)
					}
					if logs[0].Len() < union.Len() {
						narrower++
					}
				}
				if narrower == 0 || reverseOnly == 0 {
					t.Fatalf("vacuous: the forward log was narrower than ∪Aff_N in %d batches, and %d reverse rows moved off it", narrower, reverseOnly)
				}
			})
		}
	}
}
