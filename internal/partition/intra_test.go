package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shard"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// An engine's shape is fixed by NewEngine. These tests drive scripts of
// mutations through both shapes and pin what each holds afterwards: the
// ball plane nothing of §V, ever; the §V plane everything, current, the
// moment a mutation returns — its next reader has nothing left to build
// or reconcile.

// intraScript is unreadScript followed by what only the intra engines
// would notice: k rounds that each toggle one intra edge as a one-update
// batch, the middle one also inserting a node under a label the graph
// has never seen (a partition created mid-script), wired to both sides,
// and — in a rebuild script — calling Build again.
func intraScript(t *testing.T, rng *rand.Rand, e *Engine, g *graph.Graph, z [2]uint32, k, perBatch int, widen, rebuild bool) {
	t.Helper()
	unreadScript(t, rng, e, g, z, k, perBatch, widen)
	for round := 0; round < k; round++ {
		var live []uint32
		g.Nodes(func(id uint32) { live = append(live, id) })
		for tries := 0; tries < 200; tries++ {
			x, y := live[rng.Intn(len(live))], live[rng.Intn(len(live))]
			if x == y || primaryLabel(g, x) != primaryLabel(g, y) {
				continue
			}
			if g.HasEdge(x, y) {
				deleteEdge(t, e, g, x, y)
			} else {
				insertEdge(t, e, g, x, y)
			}
			break
		}
		if round != k/2 {
			continue
		}
		id := uint32(g.NumIDs())
		b := []updates.Update{
			{Kind: updates.DataNodeInsert, Node: id, Labels: []string{fmt.Sprintf("fresh%d", id)}},
			{Kind: updates.DataEdgeInsert, From: id, To: live[0]},
			{Kind: updates.DataEdgeInsert, From: live[len(live)-1], To: id},
		}
		if _, err := e.ApplyData(b, g); err != nil {
			t.Fatal(err)
		}
		if rebuild {
			e.Build()
		}
	}
}

// assertIntraExact compares e — all-pairs Dist and both ball directions —
// with a freshly built §V engine and the global engine over the same
// graph, and every read of it with the reference.
func assertIntraExact(t *testing.T, e *Engine, g *graph.Graph, name string) {
	t.Helper()
	fresh := NewEngine(g.Clone(), e.Horizon(), WithStitchedQueries(), WithMetrics(obs.NewRegistry()))
	fresh.Build()
	assertEnginesAgree(t, fresh, e, g, name+" vs fresh §V")
	assertOracleAgrees(t, e, g, e.Horizon(), -1)
	assertMatchesReference(t, e, g, e.Horizon(), name)
}

// assertSectionVCurrent pins the eager half of the contract on a §V
// engine, in-process or a fleet: every partition is served by an alive
// slot (an in-process one has its intra engine; every row a fleet's
// clients hold is exact), and the overlay matrices equal those of an
// in-process engine built from scratch over the same graph, entry for
// entry — without e having been read since its last mutation.
func assertSectionVCurrent(t *testing.T, e *Engine, g *graph.Graph, name string) {
	t.Helper()
	sv := e.sv()
	for p := range sv.part.parts {
		if p >= len(sv.shardOf) || !sv.shardAlive[sv.shardOf[p]] {
			t.Fatalf("%s: partition %d is served by no alive shard", name, p)
		}
		if local, ok := sv.shards[sv.shardOf[p]].(*shard.Local); ok && !local.Owns(p) {
			t.Fatalf("%s: partition %d has no intra engine", name, p)
		}
	}
	if e.Remote() {
		CheckHeldShardRows(t, e)
	}
	fresh := NewEngine(g.Clone(), e.Horizon(), WithStitchedQueries(), WithMetrics(obs.NewRegistry()))
	fresh.Build()
	for _, m := range []struct {
		dir       string
		got, want shortest.Matrix
	}{{"fwd", sv.ov.fwd, fresh.sv().ov.fwd}, {"rev", sv.ov.rev, fresh.sv().ov.rev}} {
		for u := uint32(0); int(u) < g.NumIDs(); u++ {
			row := func(mx shortest.Matrix) map[uint32]shortest.Dist {
				out := map[uint32]shortest.Dist{}
				if int(u) < mx.Rows() {
					mx.Row(u, func(c uint32, d shortest.Dist) bool { out[c] = d; return true })
				}
				return out
			}
			if got, want := row(m.got), row(m.want); !sameBall(got, want) {
				t.Fatalf("%s: overlay %s row %d = %v, a fresh build has %v", name, m.dir, u, got, want)
			}
		}
	}
}

// TestIntraFirstReadMatchesFresh keeps its name from when the intra
// engines waited for their first reader. What it pins now is that the
// reader finds them done: a §V engine is current when Build, every
// mutator of the script (single ops, batches, a founded and an emptied
// partition), EnsureHorizon and a second Build return, and its first
// read afterwards equals a fresh engine's, the global engine's and the
// reference's.
func TestIntraFirstReadMatchesFresh(t *testing.T) {
	for _, k := range []int{1, 2, 5, 20} {
		for _, horizon := range []int{0, 3} {
			name := fmt.Sprintf("k=%d h=%d", k, horizon)
			rng := rand.New(rand.NewSource(int64(300 + k)))
			g, z := deferredGraph(rng)
			reg := obs.NewRegistry()
			e := NewEngine(g, horizon, WithStitchedQueries(), WithMetrics(reg))
			e.Build()
			assertSectionVCurrent(t, e, g, name+" built")
			parts := len(e.sv().part.parts)
			intraScript(t, rng, e, g, z, k, 4, horizon != 0, k >= 5)
			if len(e.sv().part.parts) != parts+1 {
				t.Fatalf("%s: a node under a new label made %d partitions of %d", name, len(e.sv().part.parts), parts)
			}
			assertSectionVCurrent(t, e, g, name+" after the script")
			b0, s0 := overlaySyncs(reg)
			assertIntraExact(t, e, g, name)
			if b, s := overlaySyncs(reg); b != b0 || s != s0 {
				t.Fatalf("%s: reads reconciled the overlay (build %d→%d, scoped %d→%d)", name, b0, b, s0, s)
			}
			e.Build()
			intraScript(t, rng, e, g, z, 1, 4, false, false)
			assertSectionVCurrent(t, e, g, name+" rebuilt")
			assertIntraExact(t, e, g, name+" rebuilt")
		}
	}
}

// TestIntraCloneAbsentAndPresent forks an engine of each shape — §V
// state absent, §V state present; the clone has its parent's shape.
// Parent and clone then diverge and each must stay equal to a fresh
// engine over its own graph.
func TestIntraCloneAbsentAndPresent(t *testing.T) {
	for _, cfg := range shapes() {
		rng := rand.New(rand.NewSource(41))
		g, z := deferredGraph(rng)
		e := NewEngine(g, 3, append(cfg.opts, WithMetrics(obs.NewRegistry()))...)
		e.Build()
		intraScript(t, rng, e, g, z, 2, 3, false, false)
		g2 := g.Clone()
		c := e.CloneFor(g2).(*Engine)
		if (c.sv() == nil) != (e.sv() == nil) || c.Remote() || c.metrics != e.metrics {
			t.Fatalf("%s: clone has §V state: %v, parent: %v", cfg.name, c.sv() != nil, e.sv() != nil)
		}
		if c.sv() != nil {
			assertSectionVCurrent(t, c, g2, cfg.name+" clone")
		}
		intraScript(t, rand.New(rand.NewSource(42)), e, g, z, 2, 3, false, false)
		intraScript(t, rand.New(rand.NewSource(43)), c, g2, z, 3, 2, false, false)
		assertIntraExact(t, c, g2, cfg.name+" clone")
		assertIntraExact(t, e, g, cfg.name+" parent")
	}
}

// TestBatchedAndBallReadEngineNeverMaterialises pins the ball plane: an
// engine built without a fleet and without stitched queries — and its
// clone — holds no partitioning, no shard and no overlay through 50
// batches, their ball reads, a widened horizon and a second Build, and
// answers exactly what the reference does; while every engine of the §V
// shape has all of it when Build returns.
func TestBatchedAndBallReadEngineNeverMaterialises(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	g := testkit.Shape{Nodes: 56, Edges: 220, Labels: 6, Homophily: 0.85}.Graph(rng.Int63())
	reg := obs.NewRegistry()
	e := NewEngine(g, 3, WithMetrics(reg))
	e.Build()
	p := pattern.New(g.Labels())
	absent := func(e *Engine, when string) {
		t.Helper()
		if e.sv() != nil || e.Partitioning() != nil || e.Remote() || e.Err() != nil {
			t.Fatalf("%s: a ball-plane engine holds §V state", when)
		}
	}
	for batch := 0; batch < 50; batch++ {
		b := updates.Generate(updates.Balanced(rng.Int63(), 0, 6), g, p)
		changeLog, err := e.ApplyData(b.D, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range changeLog.Nodes {
			e.ForwardBall(x, 3, func(uint32, shortest.Dist) bool { return true })
			e.ReverseBall(x, 3, func(uint32, shortest.Dist) bool { return true })
		}
		switch batch {
		case 25:
			e.EnsureHorizon(4)
			absent(e.CloneFor(g.Clone()).(*Engine), "clone")
		case 40:
			e.Build()
		}
		absent(e, fmt.Sprintf("batch %d", batch))
	}
	if b, s := overlaySyncs(reg); b+s != 0 {
		t.Fatalf("50 batches and their ball reads cost %d+%d overlay syncs, want none", b, s)
	}
	for _, phase := range []string{"pre_balls", "oplog_flush", "overlay_sync", "post_balls"} {
		if n := reg.HistogramCounts("gpnm_batch_phase_seconds")[phase]; n != 50 {
			t.Errorf("50 batches recorded %d %s spans", n, phase)
		}
	}
	e.WithReadFailover(func() { assertMatchesReference(t, e, g, 4, "ball plane") })
	if err := e.Close(); err != nil {
		t.Error(err)
	}

	fleet := httptestFleet(t, 2)
	for name, opts := range map[string][]Option{
		"stitched": {WithStitchedQueries()},
		"remote":   {WithShards(fleet...)},
	} {
		reg := obs.NewRegistry()
		se := NewEngine(g.Clone(), 3, append(opts, WithMetrics(reg))...)
		se.Build()
		if se.Partitioning() == nil {
			t.Errorf("%s: a §V engine without a partitioning", name)
		}
		if built := reg.Counter("gpnm_overlay_sync_total", "mode", "build").Value(); built != 1 {
			t.Errorf("%s: Build left %d overlay builds, want 1", name, built)
		}
		if reg.HistogramCounts("gpnm_batch_phase_seconds")["intra_build"] != 1 {
			t.Errorf("%s: Build did not record one intra_build span", name)
		}
		if err := se.Close(); err != nil {
			t.Error(err)
		}
	}
}
