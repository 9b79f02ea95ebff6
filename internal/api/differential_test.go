package api

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"uagpnm/internal/graph"
	"uagpnm/internal/hub"
	"uagpnm/internal/pattern"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// TestDifferentialRemoteEqualsLocal drives identical batch streams
// through an in-process hub and through Dial → /v1 → a second hub over
// the same initial graph, asserting batch-for-batch equality of
// deltas, snapshots and results. This is the wire-fidelity pin: any
// codec asymmetry (update encoding, pattern round-trip, delta
// rendering, simulation-set reconstruction) breaks it.
func TestDifferentialRemoteEqualsLocal(t *testing.T) {
	const nPatterns = 3
	g, ps := testkit.Shape{Nodes: 120, Edges: 420, Labels: 6, Homophily: 0.8, PatNodes: 4, PatEdges: 4}.Patterns(7, nPatterns)

	newHub := func(g *graph.Graph) *hub.Hub {
		h, err := hub.New(g, hub.Config{Horizon: 3})
		if err != nil {
			t.Fatal(err)
		}
		return h
	}
	local := newHub(g.Clone())
	remoteHub := newHub(g.Clone())
	ts := httptest.NewServer(NewServer(remoteHub, ServerConfig{PollTimeout: 2 * time.Second}).Routes())
	t.Cleanup(ts.Close)
	c, err := Dial(context.Background(), ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()

	// Driver state: the batch generator needs the evolving graph and
	// pattern, which the hubs own privately — mirror them.
	gw := g.Clone()
	localIDs := make([]hub.PatternID, nPatterns)
	remoteIDs := make([]hub.PatternID, nPatterns)
	mirror := make([]*pattern.Graph, nPatterns)
	for i, p := range ps {
		var err error
		if localIDs[i], err = local.Register(ctx, p.Clone()); err != nil {
			t.Fatal(err)
		}
		if remoteIDs[i], err = c.Register(ctx, p); err != nil {
			t.Fatal(err)
		}
		mirror[i] = p.Clone()
	}

	for round := 0; round < 6; round++ {
		// Generate ΔGD against the driver graph and ΔGP against pattern
		// round%n's driver mirror; both hubs get identical batches.
		b := updates.Generate(updates.Balanced(int64(round*31+5), 2, 24), gw, mirror[round%nPatterns])
		pi := round % nPatterns
		lb := hub.Batch{D: b.D, P: map[hub.PatternID][]updates.Update{localIDs[pi]: b.P}}
		rb := hub.Batch{D: b.D, P: map[hub.PatternID][]updates.Update{remoteIDs[pi]: b.P}}

		ldeltas, lstats, lerr := local.ApplyBatch(ctx, lb)
		rdeltas, rstats, rerr := c.ApplyBatch(ctx, rb)
		if lerr != nil || rerr != nil {
			t.Fatalf("round %d: local err %v, remote err %v", round, lerr, rerr)
		}
		if lstats.Seq != rstats.Seq || lstats.DataUpdates != rstats.DataUpdates {
			t.Fatalf("round %d: stats diverged: %+v vs %+v", round, lstats, rstats)
		}
		if len(ldeltas) != len(rdeltas) {
			t.Fatalf("round %d: %d local deltas vs %d remote", round, len(ldeltas), len(rdeltas))
		}
		for i := range ldeltas {
			ld, rd := ldeltas[i], rdeltas[i]
			if ld.Seq != rd.Seq || len(ld.Nodes) != len(rd.Nodes) {
				t.Fatalf("round %d delta %d: %+v vs %+v", round, i, ld, rd)
			}
			for j := range ld.Nodes {
				if ld.Nodes[j].Node != rd.Nodes[j].Node ||
					!ld.Nodes[j].Added.Equal(rd.Nodes[j].Added) ||
					!ld.Nodes[j].Removed.Equal(rd.Nodes[j].Removed) {
					t.Fatalf("round %d delta %d node %d: local (+%v -%v) vs remote (+%v -%v)",
						round, i, j,
						ld.Nodes[j].Added, ld.Nodes[j].Removed,
						rd.Nodes[j].Added, rd.Nodes[j].Removed)
				}
			}
		}

		// Advance the driver mirrors the same way the hubs did.
		for _, u := range b.D {
			updates.ApplyGraph(u, gw)
		}
		updates.ApplyPatternBatch(b.P, mirror[pi])

		// Snapshot equality per pattern: raw simulation images, totality
		// and every projected result set.
		for i := range localIDs {
			lp, lm, lseq, lerr := local.Snapshot(ctx, localIDs[i])
			if lerr != nil {
				t.Fatalf("round %d: local snapshot missing", round)
			}
			rp, rm, rseq, err := c.Snapshot(ctx, remoteIDs[i])
			if err != nil {
				t.Fatal(err)
			}
			if lseq != rseq || lp.NumIDs() != rp.NumIDs() || lp.NumEdges() != rp.NumEdges() {
				t.Fatalf("round %d pattern %d: shape diverged (seq %d/%d)", round, i, lseq, rseq)
			}
			if lm.Total() != rm.Total() {
				t.Fatalf("round %d pattern %d: totality diverged", round, i)
			}
			lp.Nodes(func(u uint32) {
				if !lm.SimulationSet(u).Equal(rm.SimulationSet(u)) {
					t.Fatalf("round %d pattern %d node %d: sim %v vs %v",
						round, i, u, lm.SimulationSet(u), rm.SimulationSet(u))
				}
				ls, _ := local.Result(ctx, localIDs[i], u)
				rs, err := c.Result(ctx, remoteIDs[i], u)
				if err != nil || !ls.Equal(rs) {
					t.Fatalf("round %d pattern %d node %d: result %v vs %v (err %v)",
						round, i, u, ls, rs, err)
				}
			})
		}
	}
}
