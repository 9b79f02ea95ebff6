package shortest

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/testkit"
)

// refSweep is what Run must reach, by the hop reference: every node
// within hops of a source, at the smallest start(s) + d(s,x) — d(x,s)
// when reverse. A dead source is reached at its start depth alone.
func refSweep(d testkit.HopMatrix, at0, at1 []uint32, hops int, reverse bool) map[uint32]Dist {
	want := map[uint32]Dist{}
	add := func(x uint32, l int) {
		if l > hops {
			return
		}
		if old, ok := want[x]; !ok || Dist(l) < old {
			want[x] = Dist(l)
		}
	}
	for start, srcs := range [][]uint32{at0, at1} {
		for _, s := range srcs {
			add(s, start)
			for x, h := range d.Ball(s, hops-start, 0, reverse) {
				add(x, h+start)
			}
		}
	}
	return want
}

// checkSweep runs sw and fails unless it reached exactly refSweep's
// nodes at its levels, each once, in BFS order (levels never decrease),
// and unless Sort then leaves Reached ascending with Level realigned.
func checkSweep(t *testing.T, sw *Sweep, g *graph.Graph, d testkit.HopMatrix, at0, at1 []uint32, hops int, reverse bool) {
	t.Helper()
	sw.Run(g, at0, at1, hops, reverse)
	want := refSweep(d, at0, at1, hops, reverse)
	name := fmt.Sprintf("Run(at0 %v, at1 %v, hops %d, reverse %v)", at0, at1, hops, reverse)
	if len(sw.Reached) != len(sw.Level) || len(sw.Reached) != len(want) {
		t.Fatalf("%s: reached %d nodes at %d levels, want %d: %v", name, len(sw.Reached), len(sw.Level), len(want), want)
	}
	for i, x := range sw.Reached {
		if l, ok := want[x]; !ok || sw.Level[i] != l {
			t.Fatalf("%s: %d at level %d, want %d (reached %v)", name, x, sw.Level[i], l, ok)
		}
		if i > 0 && sw.Level[i-1] > sw.Level[i] {
			t.Fatalf("%s: levels not in BFS order: %v", name, sw.Level)
		}
	}
	sw.Sort()
	if !slices.IsSorted(sw.Reached) {
		t.Fatalf("%s: Sort left %v", name, sw.Reached)
	}
	for i, x := range sw.Reached {
		if sw.Level[i] != want[x] {
			t.Fatalf("%s: after Sort %d at level %d, want %d", name, x, sw.Level[i], want[x])
		}
	}
}

// TestSweep pins the one BFS against Floyd–Warshall: levels from mixed
// depth-0 and depth-1 sources in both directions at every hop count up
// to past the diameter, hops 0 (the depth-0 sources alone), negative
// hops (nothing), dead sources (reached at their start depth, not
// expanded), Sort, From, and one Sweep reused across graphs of
// different sizes, larger and smaller. The exact horizon's cap
// (CapHops(0)) is the largest finite distance.
func TestSweep(t *testing.T) {
	if CapHops(0) != int(Inf)-1 || CapHops(3) != 3 {
		t.Fatalf("CapHops: 0 → %d, 3 → %d", CapHops(0), CapHops(3))
	}
	var sw Sweep
	for _, n := range []int{60, 12, 90, 5} {
		g := testkit.Shape{Nodes: n, Edges: 3 * n, Labels: 2, Homophily: 0.5}.Graph(int64(n))
		rng := rand.New(rand.NewSource(int64(n)))
		pick := func(k int) []uint32 {
			var ids []uint32
			for range k {
				ids = append(ids, uint32(rng.Intn(g.NumIDs())))
			}
			return ids
		}
		dead := uint32(rng.Intn(g.NumIDs()))
		g.RemoveNode(dead)
		d := testkit.NewHopMatrix(g)
		for trial := range 20 {
			at0, at1 := pick(rng.Intn(3)), pick(rng.Intn(4))
			if trial%5 == 0 {
				at1 = append(at1, dead)
			}
			if trial%7 == 0 {
				at0 = append(at0, dead)
			}
			for hops := range 7 {
				for _, reverse := range []bool{false, true} {
					checkSweep(t, &sw, g, d, at0, at1, hops, reverse)
				}
			}
			checkSweep(t, &sw, g, d, at0, at1, CapHops(0), trial%2 == 0)
		}
		if sw.Run(g, []uint32{0}, []uint32{1}, -1, false); len(sw.Reached) != 0 {
			t.Fatalf("n=%d: negative hops reached %v", n, sw.Reached)
		}
		if sw.From(g, dead, 3, false); len(sw.Reached) != 0 {
			t.Fatalf("n=%d: From a dead source reached %v", n, sw.Reached)
		}
		for x := range uint32(g.NumIDs()) {
			if x == dead {
				continue
			}
			sw.From(g, x, 2, true)
			if want := refSweep(d, []uint32{x}, nil, 2, true); len(sw.Reached) != len(want) || sw.Reached[0] != x {
				t.Fatalf("n=%d: From(%d) reached %v, want %v with the source first", n, x, sw.Reached, want)
			}
		}
	}
}
