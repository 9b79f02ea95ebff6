package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// The overlay of a §V engine is reconciled by the mutation that dirtied
// it, inside that mutation's failover boundary. These tests run scripts
// of mutations with no read in between and pin the matrices they leave
// behind against a build from scratch.

func overlaySyncs(reg *obs.Registry) (build, scoped uint64) {
	return reg.Counter("gpnm_overlay_sync_total", "mode", "build").Value(),
		reg.Counter("gpnm_overlay_sync_total", "mode", "scoped").Value()
}

// deferredGraph is a homophilous graph plus a two-node partition "Z"
// wired to both sides, small enough to be emptied by one batch.
func deferredGraph(rng *rand.Rand) (*graph.Graph, [2]uint32) {
	g := testkit.Shape{Nodes: 72, Edges: 250, Labels: 5, Homophily: 0.8}.Graph(rng.Int63())
	var z [2]uint32
	for i := range z {
		z[i] = g.AddNode("Z")
		g.AddEdge(uint32(rng.Intn(72)), z[i])
		g.AddEdge(z[i], uint32(rng.Intn(72)))
	}
	g.AddEdge(z[0], z[1])
	return g, z
}

// primaryLabel and isBridge read off the graph what a partitioning
// would say — the scripts below run on both engine shapes, and the ball
// plane has no partitioning to ask.
func primaryLabel(g *graph.Graph, id uint32) graph.LabelID { return g.NodeLabels(id)[0] }

func isBridge(g *graph.Graph, id uint32) bool {
	for _, nbrs := range [][]uint32{g.Out(id), g.In(id)} {
		for _, v := range nbrs {
			if primaryLabel(g, v) != primaryLabel(g, id) {
				return true
			}
		}
	}
	return false
}

// unreadScript applies k rounds of mutations to e without reading it:
// each round toggles one cross edge between two fixed nodes
// as a one-update batch (so its endpoints gain, lose and regain
// bridge status as rounds go by), applies a random batch of perBatch
// updates and deletes one node as a one-update batch; the middle
// round also empties partition Z and, when widen is set, widens the
// horizon.
func unreadScript(t *testing.T, rng *rand.Rand, e *Engine, g *graph.Graph, z [2]uint32, k, perBatch int, widen bool) {
	t.Helper()
	// The toggled edge joins two nodes with no other cross edge.
	var x, y uint32
	found := false
	g.Nodes(func(id uint32) {
		if found || isBridge(g, id) {
			return
		}
		g.Nodes(func(id2 uint32) {
			if !found && !isBridge(g, id2) && primaryLabel(g, id2) != primaryLabel(g, id) {
				x, y, found = id, id2, true
			}
		})
	})
	if !found {
		t.Fatal("no pair of non-bridge nodes in different partitions")
	}
	p := pattern.New(g.Labels())
	for round := 0; round < k; round++ {
		if g.Alive(x) && g.Alive(y) {
			if g.HasEdge(x, y) {
				deleteEdge(t, e, g, x, y)
			} else {
				insertEdge(t, e, g, x, y)
			}
		}
		if perBatch > 0 {
			b := updates.Generate(updates.Balanced(rng.Int63(), 0, perBatch), g, p)
			if _, _, err := e.ApplyDataBatch(b.D, g); err != nil {
				t.Fatal(err)
			}
			var live []uint32
			g.Nodes(func(id uint32) {
				if id != x && id != y {
					live = append(live, id)
				}
			})
			deleteNode(t, e, g, live[rng.Intn(len(live))])
		}
		if round == k/2 {
			var empty []updates.Update
			for _, id := range z {
				if g.Alive(id) {
					empty = append(empty, updates.Update{Kind: updates.DataNodeDelete, Node: id})
				}
			}
			if _, _, err := e.ApplyDataBatch(empty, g); err != nil {
				t.Fatal(err)
			}
			if widen {
				e.EnsureHorizon(e.Horizon() + 1)
			}
		}
	}
}

// TestDeferredOverlayFirstReadMatchesFresh keeps its name from when the
// overlay waited for its first reader. What it pins now is the opposite
// order: each mutation of the script reconciles the overlay when it
// happens — scoped while its anchors are few, by a build when they
// outgrow rebuildFraction or the horizon widens — so the matrices an
// unread script leaves behind equal a fresh engine's entry for entry,
// and the reads that follow cost no sync at all.
func TestDeferredOverlayFirstReadMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		k, perBatch int
		widen       bool
	}{
		{k: 1, perBatch: 0},
		{k: 2, perBatch: 4},
		{k: 5, perBatch: 4, widen: true},
		{k: 20, perBatch: 4},
	} {
		for _, horizon := range []int{0, 3} {
			if tc.widen && horizon == 0 {
				continue
			}
			name := fmt.Sprintf("k=%d widen=%v h=%d", tc.k, tc.widen, horizon)
			rng := rand.New(rand.NewSource(int64(77 + tc.k)))
			g, z := deferredGraph(rng)
			reg := obs.NewRegistry()
			e := NewEngine(g, horizon, WithStitchedQueries(), WithMetrics(reg))
			e.Build()
			if b, s := overlaySyncs(reg); b != 1 || s != 0 {
				t.Fatalf("%s: Build cost %d overlay builds and %d scoped syncs, want 1 and 0", name, b, s)
			}
			unreadScript(t, rng, e, g, z, tc.k, tc.perBatch, tc.widen)
			b, s := overlaySyncs(reg)
			switch {
			case tc.perBatch == 0 && (b != 1 || s != 2):
				t.Fatalf("%s: a toggled cross edge and a batch emptying Z cost %d builds and %d scoped syncs, want 0 and 2", name, b-1, s)
			case tc.widen && b < 2:
				t.Fatalf("%s: a widened horizon did not rebuild the overlay (%d builds)", name, b)
			case s == 0:
				t.Fatalf("%s: no mutation reconciled the overlay in scope", name)
			}
			assertSectionVCurrent(t, e, g, name)
			assertIntraExact(t, e, g, name)
			if b2, s2 := overlaySyncs(reg); b2 != b || s2 != s {
				t.Fatalf("%s: reads reconciled the overlay (build %d→%d, scoped %d→%d)", name, b, b2, s, s2)
			}
		}
	}
}
