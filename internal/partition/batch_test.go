package partition

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uagpnm/internal/datasets"
	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
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
		updates.Update{Kind: updates.DataNodeInsert, Node: newID, Labels: []string{datasets.LabelName(0)}},
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
// update's affected set — for one update, the union of the two logs —
// nil when it changed nothing.
func applyOne(t testing.TB, e *Engine, g *graph.Graph, u updates.Update) nodeset.Set {
	t.Helper()
	logs, err := e.applyLogs([]updates.Update{u}, g)
	if err != nil {
		t.Fatalf("%v: %v", u, err)
	}
	return logs[0].Union(logs[1])
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
// source of every pair whose distance actually changed, at a depth no
// larger than the pair's old or new distance, and every node the batch
// inserts or deletes — the seeding invariant of the single-pass
// amendment — and the union of the per-update Aff_N both ends of every
// such pair (DER-II's), on the partition engine (AffectedSets) and on the
// global engine the baselines run on (ApplyDataAffected), each over its
// own copy of the same graph and batch.
func TestApplyDataBatchAffectedCoverage(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		base := testkit.Shape{Nodes: 25, Edges: 75, Labels: 3, Homophily: 0.8}.Graph(rng.Int63())
		var live []uint32
		base.Nodes(func(id uint32) { live = append(live, id) })
		batch := makeBatch(rng, base, live, uint32(base.NumIDs()), live[rng.Intn(len(live))])
		for _, global := range []bool{false, true} {
			g := base.Clone()
			var e shortest.DistanceEngine = NewEngine(g, 3)
			// apply is the batch with its per-update Aff_N.
			apply := func() ([]nodeset.Set, shortest.ChangeLog, error) {
				log, err := e.ApplyData(batch, g)
				return AffectedSets(batch, base, g, 3), log, err
			}
			if global {
				ge := shortest.NewEngine(g, 3)
				e = ge
				apply = func() ([]nodeset.Set, shortest.ChangeLog, error) {
					per, log := ge.ApplyDataAffected(batch, g)
					return per, log, nil
				}
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
			perUpdate, changeLog, err := apply()
			if err != nil {
				t.Fatal(err)
			}
			logBits, affBits := nodeset.NewBits(g.NumIDs()), nodeset.NewBits(g.NumIDs())
			logBits.AddSet(changeLog.Nodes)
			for _, a := range perUpdate {
				affBits.AddSet(a)
			}
			for u := uint32(0); int(u) < n0; u++ {
				for v := uint32(0); int(v) < n0; v++ {
					old, now := before[[2]uint32{u, v}], e.Dist(u, v)
					if old == now {
						continue
					}
					i, on := slices.BinarySearch(changeLog.Nodes, u)
					if !on {
						t.Fatalf("trial %d (global %v): changed pair (%d,%d) has its source off the change log",
							trial, global, u, v)
					}
					if d := changeLog.DepthAt(i); d > int(min(old, now)) {
						t.Fatalf("trial %d (global %v): pair (%d,%d) moved %d → %d, below its source's depth %d",
							trial, global, u, v, old, now, d)
					}
					if !affBits.Contains(u) || !affBits.Contains(v) {
						t.Fatalf("trial %d (global %v): changed pair (%d,%d) has an end off every Aff_N", trial, global, u, v)
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
	pre := g.Clone()
	changeLog, _ := e.ApplyData(batch, g)
	for i, s := range AffectedSets(batch, pre, g, 0) {
		if s != nil {
			t.Errorf("no-op update %d produced set %v", i, s)
		}
	}
	if changeLog.Len() != 0 {
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
		g := testkit.Shape{Nodes: 60, Edges: 240, Labels: 4, Homophily: 0.8}.Graph(rng.Int63())
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
		if _, err := e.ApplyData(makeBatch(rng, g, live, uint32(g.NumIDs()), live[len(live)/2]), g); err != nil {
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
// every row shape and on the global engine, at capped horizons (1 and 3)
// and the exact one, over random churn batches: against the
// Floyd–Warshall reference before and after each batch, every source
// whose forward row moved is on the forward log (the change log
// ApplyData returns) at a depth no larger than the shallowest depth its
// row moved at — if x's row differs within depth d, δ(x) ≤ d — every
// target whose reverse row moved is on the reverse log, and every node
// the batch inserted or deleted is on the forward log at depth 0. The
// forward log must be smaller than the union of the per-update affected
// sets at least once, some reverse row must move for a node off the
// forward log, and some member must sit deeper than 0 and than 1, so no
// half holds vacuously.
func TestChangeLogCoversMovedRows(t *testing.T) {
	engines := append(rowShapes[:len(rowShapes):len(rowShapes)], struct {
		name string
		opts func(t *testing.T) []Option
	}{"global", nil})
	for _, horizon := range []int{3, 0, 1} {
		for _, setup := range engines {
			t.Run(fmt.Sprintf("%s/h%d", setup.name, horizon), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(4100 + horizon)))
				g := testkit.Shape{Nodes: 60, Edges: 100, Labels: 4, Homophily: 0.7}.Graph(rng.Int63())
				// apply is the engine's batch with its per-update Aff_N:
				// both logs on a partition engine, the forward log alone on
				// the global one.
				var apply func(ds []updates.Update) ([]nodeset.Set, shortest.ChangeLog, nodeset.Set, error)
				if setup.opts == nil {
					e := shortest.NewEngine(g, horizon)
					e.Build()
					apply = func(ds []updates.Update) ([]nodeset.Set, shortest.ChangeLog, nodeset.Set, error) {
						per, log := e.ApplyDataAffected(ds, g)
						return per, log, nil, nil
					}
				} else {
					e := NewEngine(g, horizon, setup.opts(t)...)
					e.Build()
					t.Cleanup(func() { _ = e.Close() })
					apply = func(ds []updates.Update) ([]nodeset.Set, shortest.ChangeLog, nodeset.Set, error) {
						pre := g.Clone()
						log, rev, err := e.applyBatch(ds, g)
						return AffectedSets(ds, pre, g, horizon), log, rev, err
					}
				}
				narrower, reverseOnly, deeper := 0, 0, [2]int{}
				for batch := 0; batch < 12; batch++ {
					founding := ""
					if batch%4 == 3 {
						founding = fmt.Sprintf("new%d", batch)
					}
					ds, _ := churnBatch(rng, g, founding)
					before := testkit.NewHopMatrix(g)
					wasAlive := make([]bool, g.NumIDs())
					for x := range wasAlive {
						wasAlive[x] = g.Alive(uint32(x))
					}
					perUpdate, log, rev, err := apply(ds)
					if err != nil {
						t.Fatalf("batch %d: %v", batch, err)
					}
					depthOf := func(x uint32) (int, bool) {
						i, on := slices.BinarySearch(log.Nodes, x)
						if !on {
							return 0, false
						}
						return log.DepthAt(i), true
					}
					after := testkit.NewHopMatrix(g)
					for x := uint32(0); int(x) < g.NumIDs(); x++ {
						if d, on := depthOf(x); on && d > 1 {
							deeper[1]++
						} else if on && d > 0 {
							deeper[0]++
						}
						for _, reverse := range []bool{false, true} {
							moved := !sameRow(before.Ball(x, testkit.Unreachable-1, horizon, reverse), after.Ball(x, testkit.Unreachable-1, horizon, reverse))
							if !moved {
								continue
							}
							if reverse {
								if _, on := depthOf(x); !on {
									reverseOnly++
								}
								if rev != nil && !rev.Contains(x) {
									t.Fatalf("batch %d: the reverse row of %d moved off the reverse log %v", batch, x, rev)
								}
								continue
							}
							d, on := depthOf(x)
							if !on {
								t.Fatalf("batch %d: the forward row of %d moved off the forward log %v", batch, x, log.Nodes)
							}
							// The shallowest depth x's row moved at.
							within := 0
							for sameRow(before.Ball(x, within, horizon, false), after.Ball(x, within, horizon, false)) {
								within++
							}
							if d > within {
								t.Fatalf("batch %d: the forward row of %d moved within depth %d, but its depth on the log is %d",
									batch, x, within, d)
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
						if d, on := depthOf(u.Node); changed && (!on || d != 0) {
							t.Fatalf("batch %d: %v applied, and %d is not on the forward log %v at depth 0", batch, u, u.Node, log)
						}
					}
					if !union.Covers(log.Nodes) {
						t.Fatalf("batch %d: forward log %v is not within the union of the affected sets %v", batch, log.Nodes, union)
					}
					if log.Len() < union.Len() {
						narrower++
					}
				}
				if narrower == 0 || reverseOnly == 0 || deeper[0] == 0 || (horizon != 1 && deeper[1] == 0) {
					t.Fatalf("vacuous: the forward log was narrower than ∪Aff_N in %d batches, %d reverse rows moved off it, %d / %d members sat at depth 1 / deeper",
						narrower, reverseOnly, deeper[0], deeper[1])
				}
			})
		}
	}
}

// TestHorizonOneLogIsTheEndpoints: at horizon 1 an edge's balls have
// radius 0, so inserting 9→0 on the chain 0→1→…→9 moves the forward
// row of 9 alone (at depth 1) and the reverse row of 0 alone — not every
// node the update can reach, which is what a 0-hop ball read as
// unbounded named.
func TestHorizonOneLogIsTheEndpoints(t *testing.T) {
	for _, shape := range shapes() {
		g := graph.New(nil)
		for range 10 {
			g.AddNode("A")
		}
		for i := uint32(0); i+1 < 10; i++ {
			g.AddEdge(i, i+1)
		}
		e := NewEngine(g, 1, shape.opts...)
		e.Build()
		log, rev, err := e.applyBatch([]updates.Update{{Kind: updates.DataEdgeInsert, From: 9, To: 0}}, g)
		if err != nil {
			t.Fatal(err)
		}
		if !log.Nodes.Equal(nodeset.Set{9}) || !slices.Equal(log.Depth, []uint8{1}) || !rev.Equal(nodeset.Set{0}) {
			t.Fatalf("%s: forward log %v at depths %v, reverse log %v; want {9} at 1 and {0}", shape.name, log.Nodes, log.Depth, rev)
		}
		_ = e.Close()
	}
}
