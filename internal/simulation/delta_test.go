package simulation

import (
	"fmt"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

func buildDeltaFixture() (*graph.Graph, *pattern.Graph, shortest.DistanceEngine) {
	g := graph.New(nil)
	g.AddNode("A") // 0
	g.AddNode("B") // 1
	g.AddNode("A") // 2
	g.AddEdge(0, 1)
	p := pattern.New(g.Labels())
	u0 := p.AddNode("A")
	u1 := p.AddNode("B")
	p.AddEdge(u0, u1, 1)
	e := shortest.NewEngine(g, 3)
	e.Build()
	return g, p, e
}

func TestDeltaAddedRemoved(t *testing.T) {
	g, p, e := buildDeltaFixture()
	before := Run(p, g, e)

	aff, _ := e.ApplyData([]updates.Update{{Kind: updates.DataEdgeInsert, From: 2, To: 1}}, g)
	after, _ := Amend(before, p, g, e, aff)

	ds := Delta(before, after)
	if len(ds) != 1 || ds[0].Node != 0 ||
		!ds[0].Added.Equal(nodeset.New(2)) || len(ds[0].Removed) != 0 {
		t.Fatalf("Delta = %v, want [u0 +{2}]", ds)
	}
	if s := ds[0].String(); s != "u0 +{2}" {
		t.Fatalf("String() = %q", s)
	}

	// Reverse direction: deleting the edge removes the match again.
	aff, _ = e.ApplyData([]updates.Update{{Kind: updates.DataEdgeDelete, From: 2, To: 1}}, g)
	reverted, _ := Amend(after, p, g, e, aff)
	ds = Delta(after, reverted)
	if len(ds) != 1 || !ds[0].Removed.Equal(nodeset.New(2)) || len(ds[0].Added) != 0 {
		t.Fatalf("Delta = %v, want [u0 -{2}]", ds)
	}

	// No change at all → empty delta.
	if ds := Delta(after, after); len(ds) != 0 {
		t.Fatalf("self delta = %v, want empty", ds)
	}
}

// TestDeltaProjection: crossing the total/non-total boundary reports the
// whole visible result as removed (and back as added), per §III-B's BGS
// projection.
func TestDeltaProjection(t *testing.T) {
	g, p, e := buildDeltaFixture()
	total := Run(p, g, e)

	// Deleting the only edge empties u0's image: the match is no longer
	// total, so the projected result collapses to ∅ everywhere.
	aff, _ := e.ApplyData([]updates.Update{{Kind: updates.DataEdgeDelete, From: 0, To: 1}}, g)
	empty, _ := Amend(total, p, g, e, aff)
	ds := Delta(total, empty)
	if len(ds) != 2 {
		t.Fatalf("Delta across totality = %v, want removals for u0 and u1", ds)
	}
	if !ds[0].Removed.Equal(nodeset.New(0)) || !ds[1].Removed.Equal(nodeset.New(1)) {
		t.Fatalf("Delta = %v, want u0 -{0}, u1 -{1}", ds)
	}
	back := Delta(empty, total)
	if len(back) != 2 || !back[0].Added.Equal(nodeset.New(0)) || !back[1].Added.Equal(nodeset.New(1)) {
		t.Fatalf("reverse Delta = %v, want additions", back)
	}
}

func TestBitsDiffSet(t *testing.T) {
	a := nodeset.NewBits(128)
	b := nodeset.NewBits(128)
	for _, id := range []uint32{1, 64, 65, 100} {
		a.Add(id)
	}
	for _, id := range []uint32{64, 100, 127} {
		b.Add(id)
	}
	if got := a.DiffSet(b); !got.Equal(nodeset.New(1, 65)) {
		t.Fatalf("a\\b = %v", got)
	}
	if got := b.DiffSet(a); !got.Equal(nodeset.New(127)) {
		t.Fatalf("b\\a = %v", got)
	}
	if got := a.DiffSet(nil); !got.Equal(nodeset.New(1, 64, 65, 100)) {
		t.Fatalf("a\\nil = %v", got)
	}
	var nilBits *nodeset.Bits
	if got := nilBits.DiffSet(a); got != nil {
		t.Fatalf("nil\\a = %v", got)
	}
	// Capacity mismatch: ids beyond o's words are kept.
	small := nodeset.NewBits(8)
	small.Add(1)
	if got := a.DiffSet(small); !got.Equal(nodeset.New(64, 65, 100)) {
		t.Fatalf("a\\small = %v", got)
	}
}

// TestDeltaIgnoresSharing: an image Amend shares with the match it
// started from does not change what Delta reports — Delta(old, new)
// equals Delta over private clones of both — for a pass that changes
// one pattern node, and for passes that flip the match's totality while
// the sink's image stays shared, where the projection, not the shared
// pointer, decides.
func TestDeltaIgnoresSharing(t *testing.T) {
	g, p, e := buildDeltaFixture()
	u1 := pattern.NodeID(1) // the sink B: no batch below writes its image
	check := func(step string, old, cur *Match) {
		t.Helper()
		if cur.sets[u1] != old.sets[u1] {
			t.Fatalf("%s: the sink's image is not shared; the case does not exercise sharing", step)
		}
		got, want := Delta(old, cur), Delta(old.Clone(old.p), cur.Clone(cur.p))
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s: Delta over shared images = %v, over private clones %v", step, got, want)
		}
	}
	first := Run(p, g, e)
	for _, step := range []struct {
		name string
		u    updates.Update
	}{
		{"one-node", updates.Update{Kind: updates.DataEdgeInsert, From: 2, To: 1}},
		{"still-total", updates.Update{Kind: updates.DataEdgeDelete, From: 2, To: 1}},
		{"to-non-total", updates.Update{Kind: updates.DataEdgeDelete, From: 0, To: 1}},
		{"back-to-total", updates.Update{Kind: updates.DataEdgeInsert, From: 0, To: 1}},
	} {
		log, _ := e.ApplyData([]updates.Update{step.u}, g)
		next, _ := Amend(first, p, g, e, log)
		check(step.name, first, next)
		first = next
	}
}
