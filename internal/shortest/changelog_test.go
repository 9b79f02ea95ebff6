package shortest

import (
	"slices"
	"testing"

	"uagpnm/internal/nodeset"
)

// TestLogBuilder: a member named several times keeps its smallest depth,
// depths saturate at MaxDepth, members come out ascending whatever the
// order and the id space they were added in, and the builder is empty
// and reusable after Log.
func TestLogBuilder(t *testing.T) {
	var b LogBuilder
	b.Grow(4)
	for _, e := range []struct {
		x uint32
		d int
	}{{7, 3}, {2, 1}, {7, 2}, {300, 900}, {2, 4}, {0, 0}, {7, 5}} {
		b.Add(e.x, e.d)
	}
	got := b.Log()
	if !got.Nodes.Equal(nodeset.Set{0, 2, 7, 300}) || !slices.Equal(got.Depth, []uint8{0, 1, 2, MaxDepth}) {
		t.Fatalf("log %v at depths %v, want {0 2 7 300} at [0 1 2 %d]", got.Nodes, got.Depth, MaxDepth)
	}
	if got.DepthAt(3) != MaxDepth || got.Len() != 4 {
		t.Fatalf("DepthAt(3) = %d, Len = %d", got.DepthAt(3), got.Len())
	}
	if again := b.Log(); again.Len() != 0 {
		t.Fatalf("a second Log = %v, want empty", again)
	}
	b.Add(5, 9)
	if next := b.Log(); !next.Nodes.Equal(nodeset.Set{5}) || !slices.Equal(next.Depth, []uint8{9}) {
		t.Fatalf("reused builder: %v at %v, want {5} at [9]", next.Nodes, next.Depth)
	}
	if bare := (ChangeLog{Nodes: nodeset.Set{1, 2}}); bare.DepthAt(1) != 0 {
		t.Fatal("a log without depths must read depth 0")
	}
}
