package partition

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
)

// The overlay is reconciled by its first reader, not by the mutation
// that dirtied it. These tests leave it unread across a script of
// mutations and then pin the first read against engines that never
// deferred anything.

func overlaySyncs(reg *obs.Registry) (build, scoped uint64) {
	return reg.Counter("gpnm_overlay_sync_total", "mode", "build").Value(),
		reg.Counter("gpnm_overlay_sync_total", "mode", "scoped").Value()
}

// deferredGraph is a homophilous graph plus a two-node partition "Z"
// wired to both sides, small enough to be emptied by one batch.
func deferredGraph(rng *rand.Rand) (*graph.Graph, [2]uint32) {
	g := homophilousGraph(rng, 72, 250, 5, 0.8)
	var z [2]uint32
	for i := range z {
		z[i] = g.AddNode("Z")
		g.AddEdge(uint32(rng.Intn(72)), z[i])
		g.AddEdge(z[i], uint32(rng.Intn(72)))
	}
	g.AddEdge(z[0], z[1])
	return g, z
}

// unreadScript applies k rounds of mutations to e without reading its
// overlay: each round toggles one cross edge between two fixed nodes
// through the single-op API (so its endpoints gain, lose and regain
// bridge status as rounds go by), applies a random batch of perBatch
// updates and deletes one node through the single-op API; the middle
// round also empties partition Z and, when widen is set, widens the
// horizon.
func unreadScript(t *testing.T, rng *rand.Rand, e *Engine, g *graph.Graph, z [2]uint32, k, perBatch int, widen bool) {
	t.Helper()
	// The toggled edge joins two nodes with no other cross edge.
	var x, y uint32
	found := false
	g.Nodes(func(id uint32) {
		if found || e.part.isOverlay(id) {
			return
		}
		g.Nodes(func(id2 uint32) {
			if !found && !e.part.isOverlay(id2) && e.part.partIndex(id2) != e.part.partIndex(id) {
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
				g.RemoveEdge(x, y)
				e.DeleteEdge(x, y)
			} else if g.AddEdge(x, y) {
				e.InsertEdge(x, y)
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
			victim := live[rng.Intn(len(live))]
			removed, _ := g.RemoveNode(victim)
			e.DeleteNode(victim, removed)
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

// assertFirstReadExact reads the overlay of e for the first time —
// through a clone switched to stitched rows, so Dist and both ball
// directions all go through it — and compares with a freshly built
// stitched engine and the global engine; then the same for e itself.
func assertFirstReadExact(t *testing.T, e *Engine, g *graph.Graph, name string) {
	t.Helper()
	c := e.CloneFor(g.Clone()).(*Engine)
	c.stitched = true
	fresh := NewEngine(g.Clone(), e.Horizon(), WithStitchedQueries(), WithMetrics(obs.NewRegistry()))
	fresh.Build()
	assertEnginesAgree(t, fresh, c, g, name+" clone vs fresh")
	assertOracleAgrees(t, c, c.Graph(), e.Horizon(), -1)
	assertOracleAgrees(t, e, g, e.Horizon(), -2)
}

func TestDeferredOverlayFirstReadMatchesFresh(t *testing.T) {
	for _, tc := range []struct {
		k, perBatch int
		primed      bool // overlay built (read once) before the script
		widen       bool
		mode        string // the one sync the first read must cost; "" = either
	}{
		{k: 1, perBatch: 0, primed: true, mode: "scoped"},
		{k: 2, perBatch: 4, primed: true},
		{k: 5, perBatch: 4, primed: true, widen: true, mode: "build"},
		{k: 20, perBatch: 4, primed: true, mode: "build"}, // anchors outgrow rebuildFraction
		{k: 5, perBatch: 4, primed: false, mode: "build"}, // never built
	} {
		for _, horizon := range []int{0, 3} {
			if tc.widen && horizon == 0 {
				continue
			}
			name := fmt.Sprintf("k=%d primed=%v widen=%v h=%d", tc.k, tc.primed, tc.widen, horizon)
			rng := rand.New(rand.NewSource(int64(77 + tc.k)))
			g, z := deferredGraph(rng)
			reg := obs.NewRegistry()
			e := NewEngine(g, horizon, WithMetrics(reg))
			e.Build()
			if tc.primed {
				e.Dist(0, 1)
			}
			b0, s0 := overlaySyncs(reg)
			unreadScript(t, rng, e, g, z, tc.k, tc.perBatch, tc.widen)
			if b, s := overlaySyncs(reg); b != b0 || s != s0 {
				t.Fatalf("%s: mutations synced the overlay (build %d→%d, scoped %d→%d)", name, b0, b, s0, s)
			}
			if reg.Counter("gpnm_overlay_deferred_total").Value() == 0 {
				t.Fatalf("%s: no deferral counted", name)
			}
			if !tc.primed && e.ov.fwd.Rows() != 0 {
				t.Fatalf("%s: unread engine holds an overlay matrix of %d rows", name, e.ov.fwd.Rows())
			}
			// The clone's first read; the clone shares e's registry.
			c := e.CloneFor(g.Clone()).(*Engine)
			var live []uint32
			g.Nodes(func(id uint32) { live = append(live, id) })
			c.Dist(live[0], live[1])
			b, s := overlaySyncs(reg)
			if (b-b0)+(s-s0) != 1 || (tc.mode == "build" && b == b0) || (tc.mode == "scoped" && s == s0) {
				t.Fatalf("%s: first read cost %d builds and %d scoped syncs, want one %s sync", name, b-b0, s-s0, tc.mode)
			}
			assertFirstReadExact(t, e, g, name)
		}
	}
}

// TestCloneCarriesPendingAnchors forks an engine whose overlay still
// owes a scoped sync, then drives parent and clone apart.
func TestCloneCarriesPendingAnchors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, z := deferredGraph(rng)
	e := NewEngine(g, 3, WithMetrics(obs.NewRegistry()))
	e.Build()
	e.Dist(0, 1)
	unreadScript(t, rng, e, g, z, 1, 0, false)
	if e.ov.full || len(e.ov.pending) == 0 {
		t.Fatalf("parent owes full=%v pending=%d, want a scoped sync", e.ov.full, len(e.ov.pending))
	}
	g2 := g.Clone()
	c := e.CloneFor(g2).(*Engine)
	if c.ov.full || !c.ov.pending.Equal(e.ov.pending) || c.ov.fresh.Load() {
		t.Fatalf("clone owes full=%v pending=%v, parent pending=%v", c.ov.full, c.ov.pending, e.ov.pending)
	}
	unreadScript(t, rand.New(rand.NewSource(6)), e, g, z, 2, 3, false)
	unreadScript(t, rand.New(rand.NewSource(7)), c, g2, z, 3, 2, false)
	assertFirstReadExact(t, c, g2, "clone")
	assertFirstReadExact(t, e, g, "parent")
}

// TestConcurrentFirstReadSyncsOnce: the read fan that follows a batch is
// concurrent, and whichever reader gets there first reconciles the
// overlay for all of them. Run under -race.
func TestConcurrentFirstReadSyncsOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g, z := deferredGraph(rng)
	reg := obs.NewRegistry()
	e := NewEngine(g, 3, WithMetrics(reg))
	e.Build()
	e.Dist(0, 1)
	for round := 0; round < 3; round++ {
		unreadScript(t, rng, e, g, z, 1, 3, false)
		b0, s0 := overlaySyncs(reg)
		fresh := NewEngine(g.Clone(), 3, WithMetrics(obs.NewRegistry()))
		fresh.Build()
		n := uint32(g.NumIDs())
		const readers = 8
		var wg sync.WaitGroup
		start := make(chan struct{})
		for r := uint32(0); r < readers; r++ {
			wg.Add(1)
			go func(r uint32) {
				defer wg.Done()
				<-start
				for x := r; x < n; x += readers {
					for y := uint32(0); y < n; y++ {
						if got, want := e.Dist(x, y), fresh.Dist(x, y); got != want {
							t.Errorf("round %d: Dist(%d,%d) = %v, fresh %v", round, x, y, got, want)
							return
						}
					}
				}
			}(r)
		}
		close(start)
		wg.Wait()
		if b, s := overlaySyncs(reg); (b-b0)+(s-s0) != 1 {
			t.Fatalf("round %d: %d readers cost %d builds + %d scoped syncs, want exactly one sync", round, readers, b-b0, s-s0)
		}
	}
}
