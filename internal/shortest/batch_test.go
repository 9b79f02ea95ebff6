package shortest

import (
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/updates"
)

// chainGraph is 0→1→2→3→4 plus the isolated 5, labels alternating A, B.
func chainGraph() *graph.Graph {
	g := graph.New(nil)
	for i := 0; i < 6; i++ {
		g.AddNode([]string{"A", "B"}[i%2])
	}
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	return g
}

// applyOne applies u as a one-update batch and returns its affected set.
func applyOne(t *testing.T, e *Engine, g *graph.Graph, u updates.Update) nodeset.Set {
	t.Helper()
	per, _ := e.ApplyDataAffected([]updates.Update{u}, g)
	return per[0]
}

func TestApplyDataRoundTrip(t *testing.T) {
	g := chainGraph()
	e := NewEngine(g, 0)
	e.Build()
	// Insert, then delete: state must return.
	aff := applyOne(t, e, g, updates.Update{Kind: updates.DataEdgeInsert, From: 4, To: 0})
	if aff.Empty() {
		t.Fatal("insertion of a connecting edge must affect nodes")
	}
	if applyOne(t, e, g, updates.Update{Kind: updates.DataEdgeInsert, From: 4, To: 0}) != nil {
		t.Fatal("duplicate insert must be a no-op")
	}
	applyOne(t, e, g, updates.Update{Kind: updates.DataEdgeDelete, From: 4, To: 0})
	if g.HasEdge(4, 0) {
		t.Fatal("edge not removed")
	}
	if applyOne(t, e, g, updates.Update{Kind: updates.DataEdgeDelete, From: 4, To: 0}) != nil {
		t.Fatal("double delete must be a no-op")
	}
	// Node insert with predicted id.
	id := uint32(g.NumIDs())
	aff = applyOne(t, e, g, updates.Update{Kind: updates.DataNodeInsert, Node: id, Labels: []string{"A"}})
	if !aff.Contains(id) || !g.Alive(id) {
		t.Fatal("node insert failed")
	}
	applyOne(t, e, g, updates.Update{Kind: updates.DataNodeDelete, Node: id})
	if g.Alive(id) {
		t.Fatal("node delete failed")
	}
}

func TestApplyDataPanicsOnWrongSide(t *testing.T) {
	g := chainGraph()
	e := NewEngine(g, 0)
	e.Build()
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	applyOne(t, e, g, updates.Update{Kind: updates.PatternEdgeInsert})
}
