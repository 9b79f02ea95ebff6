package partition

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"uagpnm/internal/obs"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// TestStampedScratchEpochWrap runs an overlay Dijkstra and a stitched
// row on scratches whose epoch is about to wrap: both must answer what a
// fresh scratch answers, not read every never-stamped id as visited.
func TestStampedScratchEpochWrap(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testkit.Shape{Nodes: 60, Edges: 220, Labels: 4, Homophily: 0.75}.Graph(rng.Int63())
	e := NewEngine(g, 3, WithStitchedQueries(), WithMetrics(obs.NewRegistry()))
	e.Build()
	sv := e.sv()

	nodes := sv.ov.overlayNodes()
	out := sv.ov.adjacency(nodes)
	for dir, adj := range [][][]hop{out, transpose(out)} {
		used := new(dijkstraScratch)
		sv.ov.dijkstra(used, adj, nodes[0])
		for _, src := range nodes {
			used.epoch = math.MaxUint32
			gotCols, gotDists := sv.ov.dijkstra(used, adj, src)
			wantCols, wantDists := sv.ov.dijkstra(new(dijkstraScratch), adj, src)
			if !slices.Equal(gotCols, wantCols) || !slices.Equal(gotDists, wantDists) {
				t.Fatalf("dir %d src %d: wrapped scratch %v %v, fresh %v %v", dir, src, gotCols, gotDists, wantCols, wantDists)
			}
		}
	}

	type key struct {
		x       uint32
		reverse bool
	}
	fresh := map[key]map[uint32]shortest.Dist{}
	g.Nodes(func(x uint32) {
		for _, reverse := range []bool{false, true} {
			fresh[key{x, reverse}] = rowMap(t, sv.stitchRow(x, reverse))
		}
	})
	sv.ballPool = sync.Pool{New: func() interface{} { return &ballScratch{epoch: math.MaxUint32} }}
	for k, want := range fresh {
		if got := rowMap(t, sv.stitchRow(k.x, k.reverse)); !sameBall(got, want) {
			t.Fatalf("row(%d, rev=%v): wrapped scratch %v, fresh %v", k.x, k.reverse, got, want)
		}
	}
}

// TestOverlayExactOnFleet drives a two-worker fleet through batches
// that move the overlay's shape — a node turned into an exit and back, a
// bridge node deleted mid-batch, a partition founded, one batch past
// rebuildFraction — and pins the overlay against a fresh in-process
// build after every one of them.
func TestOverlayExactOnFleet(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	g := testkit.Shape{Nodes: 120, Edges: 420, Labels: 5, Homophily: 0.8}.Graph(rng.Int63())
	reg := obs.NewRegistry()
	e := NewEngine(g, 3, WithShards(httptestFleet(t, 2)...), WithMetrics(reg))
	e.Build()
	assertSectionVCurrent(t, e, g, "built")
	sv := e.sv()

	apply := func(name, mode string, b []updates.Update) {
		t.Helper()
		before := reg.Counter("gpnm_overlay_sync_total", "mode", mode).Value()
		if _, _, err := e.ApplyDataBatch(b, g); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if reg.Counter("gpnm_overlay_sync_total", "mode", mode).Value() != before+1 {
			t.Fatalf("%s: the batch was not reconciled by a %s sync", name, mode)
		}
		assertSectionVCurrent(t, e, g, name)
	}
	live := func() []uint32 {
		var ids []uint32
		g.Nodes(func(id uint32) { ids = append(ids, id) })
		return ids
	}
	// absentEdge picks a missing edge whose endpoints share a label or
	// not, as cross says, and avoid the given nodes.
	absentEdge := func(cross bool, avoid ...uint32) updates.Update {
		ids := live()
		for {
			u, v := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
			if u != v && !g.HasEdge(u, v) && (primaryLabel(g, u) != primaryLabel(g, v)) == cross &&
				!slices.Contains(avoid, u) && !slices.Contains(avoid, v) {
				return updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v}
			}
		}
	}

	// A node with no cross edge gains one and loses it again.
	x := live()[slices.IndexFunc(live(), func(id uint32) bool { return !isBridge(g, id) })]
	y := live()[slices.IndexFunc(live(), func(id uint32) bool { return primaryLabel(g, id) != primaryLabel(g, x) })]
	apply("exit gained", "scoped", []updates.Update{{Kind: updates.DataEdgeInsert, From: x, To: y}, absentEdge(false, x)})
	if !sv.part.isExit(x) {
		t.Fatalf("node %d is not an exit after gaining a cross edge", x)
	}
	apply("exit lost", "scoped", []updates.Update{{Kind: updates.DataEdgeDelete, From: x, To: y}})
	if sv.part.isExit(x) {
		t.Fatalf("node %d is still an exit after losing its cross edge", x)
	}

	// An exit deleted between two inserts.
	victim := live()[slices.IndexFunc(live(), sv.part.isExit)]
	apply("bridge deleted", "scoped", []updates.Update{
		absentEdge(true, victim),
		{Kind: updates.DataNodeDelete, Node: victim},
		absentEdge(false, victim),
	})

	// A node under a new label founds a partition wired to both sides.
	ids, fresh, parts := live(), uint32(g.NumIDs()), len(sv.part.parts)
	apply("partition founded", "scoped", []updates.Update{
		{Kind: updates.DataNodeInsert, Node: fresh, Labels: []string{"founded"}},
		{Kind: updates.DataEdgeInsert, From: fresh, To: ids[0]},
		{Kind: updates.DataEdgeInsert, From: ids[len(ids)-1], To: fresh},
	})
	if len(sv.part.parts) != parts+1 {
		t.Fatalf("a node under a new label made %d partitions of %d", len(sv.part.parts), parts)
	}

	// Enough new cross edges to dirty more than rebuildFraction of the
	// bridge roles.
	var many []updates.Update
	for i := 0; i < sv.ov.bridges()/2; i++ {
		u := absentEdge(true)
		if !slices.ContainsFunc(many, func(w updates.Update) bool { return w.From == u.From && w.To == u.To }) {
			many = append(many, u)
		}
	}
	apply("past rebuildFraction", "build", many)
}
