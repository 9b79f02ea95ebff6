package simulation

import (
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// fanShaped builds a graph with the shape of the repository benchmark's
// hub_fan dataset (2 000 nodes, 8 000 edges, 16 labels, homophily 0.9)
// and a (6,6) pattern read off a walk in it, so the match is total. The
// walk leaves its label whenever it can and the bounds are the walk's
// own hop counts, which keeps the images a few nodes each, as the
// dataset's witnessed patterns are.
func fanShaped(rng *rand.Rand) (*graph.Graph, *pattern.Graph, []uint32) {
	const n, m, labels, homophily = 2000, 8000, 16, 0.9
	g := graph.New(nil)
	byLabel := make([][]uint32, labels)
	for i := 0; i < n; i++ {
		l := rng.Intn(labels)
		byLabel[l] = append(byLabel[l], g.AddNode(string(rune('A'+l))))
	}
	for i := 0; i < m; i++ {
		bucket := byLabel[rng.Intn(labels)]
		u, v := bucket[rng.Intn(len(bucket))], uint32(rng.Intn(n))
		if rng.Float64() < homophily {
			v = bucket[rng.Intn(len(bucket))]
		}
		g.AddEdge(u, v)
	}
	for {
		walk := []uint32{uint32(rng.Intn(n))}
		for len(walk) < 6 && len(g.Out(walk[len(walk)-1])) > 0 {
			at := walk[len(walk)-1]
			next := g.Out(at)[rng.Intn(len(g.Out(at)))]
			for _, v := range g.Out(at) {
				if g.NodeLabels(v)[0] != g.NodeLabels(at)[0] {
					next = v
				}
			}
			walk = append(walk, next)
		}
		if len(walk) < 6 {
			continue
		}
		p := pattern.New(g.Labels())
		var ids []pattern.NodeID
		for _, v := range walk {
			ids = append(ids, p.AddNode(g.Labels().Name(g.NodeLabels(v)[0])))
		}
		for i := 1; i < len(ids); i++ {
			p.AddEdge(ids[i-1], ids[i], 1)
		}
		p.AddEdge(ids[0], ids[2], 2)
		return g, p, walk
	}
}

// BenchmarkAmend is the simulation rung of the ladder: one amendment
// pass over a hub_fan-shaped graph after a hub_fan-sized batch — the
// churn unit (a matched node deleted and re-inserted under a new id
// with its label and neighbours) plus edge toggles, eight updates in
// all — sequentially and striped over two workers.
func BenchmarkAmend(b *testing.B) {
	rng := rand.New(rand.NewSource(96))
	g, p, walk := fanShaped(rng)
	e := shortest.NewEngine(g, 3)
	e.Build()
	old := Run(p, g, e)
	if !old.Total() {
		b.Fatal("the walk's pattern must match")
	}

	victim, fresh := walk[2], uint32(g.NumIDs())
	batch := []updates.Update{
		{Kind: updates.DataNodeDelete, Node: victim},
		{Kind: updates.DataNodeInsert, Node: fresh, Labels: []string{g.Labels().Name(g.NodeLabels(victim)[0])}},
	}
	for _, w := range g.Out(victim) {
		batch = append(batch, updates.Update{Kind: updates.DataEdgeInsert, From: fresh, To: w})
	}
	for _, w := range g.In(victim) {
		batch = append(batch, updates.Update{Kind: updates.DataEdgeInsert, From: w, To: fresh})
	}
	for len(batch) < 8+len(g.Out(victim))+len(g.In(victim)) {
		u := uint32(rng.Intn(g.NumIDs()))
		if out := g.Out(u); len(out) > 0 && u != victim && rng.Intn(2) == 0 {
			batch = append(batch, updates.Update{Kind: updates.DataEdgeDelete, From: u, To: out[0]})
		} else if v := uint32(rng.Intn(g.NumIDs())); u != victim && v != victim {
			batch = append(batch, updates.Update{Kind: updates.DataEdgeInsert, From: u, To: v})
		}
	}
	seeds := updates.ApplyDataBatch(batch, g, e)
	want := Run(p, g, e)

	for _, bc := range []struct {
		name  string
		amend func() *Match
	}{
		{"sequential", func() *Match { return Amend(old, p, g, e, seeds) }},
		{"workers2", func() *Match { return AmendN(old, p, g, e, seeds, 2) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			if got := bc.amend(); !got.Equal(want) {
				b.Fatal("amended match differs from Run")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				benchSink = bc.amend().SimulationSet(0)
			}
		})
	}
}

var benchSink nodeset.Set
