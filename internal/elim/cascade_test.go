package elim

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// canRNReference is DER-I's Can_RN for an inserted pattern edge
// (from→to, b) read off its definition with Floyd–Warshall distances:
// the forced pairs are the matches of from with no match of to within
// b and the matches of to that no match of from reaches within b; from
// the match minus them, a pair (u,x) is deleted while some out-edge
// (u,u′,b′) of p has no y left for u′ with d(x,y) ≤ b′. It returns the
// data nodes removed from any image and, apart, those the forced pairs
// alone name. Distances within horizon are the capped engine's reading;
// every bound of p and b lie within it.
func canRNReference(d testkit.HopMatrix, m *simulation.Match, p *pattern.Graph, up updates.Update, horizon int) (removed, forced nodeset.Set) {
	within := func(x, y uint32, b pattern.Bound) bool {
		h := d.Dist(x, y, horizon)
		return h != testkit.Unreachable && (b.IsStar() || h <= int(b))
	}
	in := make([]map[uint32]bool, p.NumIDs())
	p.Nodes(func(u pattern.NodeID) {
		in[u] = map[uint32]bool{}
		for _, x := range m.SimulationSet(u) {
			in[u][x] = true
		}
	})
	supported := func(x uint32, image map[uint32]bool, b pattern.Bound, reverse bool) bool {
		for y := range image {
			if (!reverse && within(x, y, b)) || (reverse && within(y, x, b)) {
				return true
			}
		}
		return false
	}
	var fromDrop, toDrop []uint32
	for x := range in[up.From] {
		if !supported(x, in[up.To], up.Bound, false) {
			fromDrop = append(fromDrop, x)
		}
	}
	for y := range in[up.To] {
		if !supported(y, in[up.From], up.Bound, true) {
			toDrop = append(toDrop, y)
		}
	}
	var f nodeset.Builder
	for _, x := range fromDrop {
		delete(in[up.From], x)
		f.Add(x)
	}
	for _, y := range toDrop {
		delete(in[up.To], y)
		f.Add(y)
	}
	for changed := true; changed; {
		changed = false
		p.Nodes(func(u pattern.NodeID) {
			for x := range in[u] {
				ok := true
				p.Out(u, func(v pattern.NodeID, b pattern.Bound) {
					ok = ok && supported(x, in[v], b, false)
				})
				if !ok {
					delete(in[u], x)
					changed = true
				}
			}
		})
	}
	var r nodeset.Builder
	p.Nodes(func(u pattern.NodeID) {
		for _, x := range m.SimulationSet(u) {
			if !in[u][x] {
				r.Add(x)
			}
		}
	})
	return r.Set(), f.Set()
}

// TestCanRNIsTheCascadeFixpoint: DER-I's Can_RN for a random pattern
// edge insert equals canRNReference on three instance shapes, exact and
// capped at 3 hops, on the global engine and the partition engine's
// ball plane, and leaves the match it reads as it was. The trials must
// include cascades that remove more than the forced pairs, so a cascade
// that never follows the pattern's in-edges fails here.
func TestCanRNIsTheCascadeFixpoint(t *testing.T) {
	shapes := []testkit.Shape{
		{Nodes: 40, Edges: 110, Labels: 3, PatNodes: 4, PatEdges: 5},
		{Nodes: 50, Edges: 140, Labels: 3, PatNodes: 5, PatEdges: 6, Star: 0.25},
		{Nodes: 60, Edges: 220, Labels: 4, Homophily: 0.75, PatNodes: 4, PatEdges: 4},
	}
	engines := []struct {
		name string
		make func(*graph.Graph, int) shortest.Oracle
	}{
		{"global", func(g *graph.Graph, h int) shortest.Oracle {
			e := shortest.NewEngine(g, h)
			e.Build()
			return e
		}},
		{"ball-plane", func(g *graph.Graph, h int) shortest.Oracle {
			e := partition.NewEngine(g, h)
			e.Build()
			return e
		}},
	}
	trials, nonEmpty, cascaded := 0, 0, 0
	for si, shape := range shapes {
		for seed := int64(0); seed < 8; seed++ {
			g, p := shape.Instance(1000*int64(si) + seed)
			d := testkit.NewHopMatrix(g)
			for _, horizon := range []int{0, 3} {
				for _, eng := range engines {
					o := eng.make(g, horizon)
					m := simulation.Run(p, g, o)
					before := m.Clone(p)
					rng := rand.New(rand.NewSource(seed))
					for range 6 {
						up, ok := randomEdgeInsert(rng, p)
						if !ok {
							break
						}
						name := fmt.Sprintf("shape%d/seed%d/h%d/%s/%v", si, seed, horizon, eng.name, up)
						got := CanSets([]updates.Update{up}, m, p, g, o)[0].Set
						want, forced := canRNReference(d, m, p, up, horizon)
						if !got.Equal(want) {
							t.Fatalf("%s: Can_RN = %v, want %v (forced %v)", name, got, want, forced)
						}
						trials++
						if !want.Empty() {
							nonEmpty++
						}
						if !forced.Covers(want) {
							cascaded++
						}
					}
					if !m.Equal(before) {
						t.Fatalf("shape%d/seed%d/h%d/%s: CanSets wrote the match", si, seed, horizon, eng.name)
					}
				}
			}
		}
	}
	t.Logf("%d inserts, %d non-empty, %d cascading past the forced pairs", trials, nonEmpty, cascaded)
	if cascaded == 0 {
		t.Fatal("no trial cascades past its forced pairs: the test does not exercise the cascade")
	}
}

// randomEdgeInsert draws an insert of a pattern edge p lacks between two
// alive nodes, with a bound of 1–3 or "*".
func randomEdgeInsert(rng *rand.Rand, p *pattern.Graph) (updates.Update, bool) {
	var nodes []pattern.NodeID
	p.Nodes(func(u pattern.NodeID) { nodes = append(nodes, u) })
	for range 32 {
		u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if _, has := p.EdgeBound(u, v); has || u == v {
			continue
		}
		b := pattern.Bound(1 + rng.Intn(3))
		if rng.Intn(4) == 0 {
			b = pattern.Star
		}
		return updates.Update{Kind: updates.PatternEdgeInsert, From: u, To: v, Bound: b}, true
	}
	return updates.Update{}, false
}
