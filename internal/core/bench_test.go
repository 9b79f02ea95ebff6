package core

import (
	"math/rand"
	"testing"

	"uagpnm/internal/datasets"
	"uagpnm/internal/ehtree"
	"uagpnm/internal/elim"
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/updates"
)

// walkPattern reads a (6,6) pattern off a walk in g, so its match is
// total: the walk leaves its label whenever it can and the bounds are the
// walk's own hop counts, which keeps the images small, as the repository
// benchmark's witnessed patterns are.
func walkPattern(g *graph.Graph, rng *rand.Rand) *pattern.Graph {
	for {
		walk := []uint32{uint32(rng.Intn(g.NumIDs()))}
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
		return p
	}
}

// BenchmarkUAPass is the core rung of the ladder: the per-pattern tail of
// one UA-GPNM batch on an instance the shape of the repository
// benchmark's session_mixed (2 000 nodes, 8 000 edges, 16 labels, a
// 6-node pattern, ΔGD 30 with ΔGP 4 mixed in, horizon 3), after ΔGD has
// been applied. "changelog" is what SQuery runs: one amendment pass
// seeded by the change log. "tree+can" is the seeding it replaced, put
// together here from the parts that stay exported — DER-I on the
// pre-batch state, the EH-Tree with DER-III over both streams, the
// change log united with the pattern-side roots — which is the shape the
// repository benchmark's layered replay still times. Both must produce
// the same match; seeds/op is the size of the set each pass starts from.
func BenchmarkUAPass(b *testing.B) {
	g := datasets.GenerateSocial(datasets.SocialConfig{Nodes: 2000, Edges: 8000, Labels: 16, Homophily: 0.9, PrefAtt: 0.6, Seed: 22})
	pre := NewSession(g, walkPattern(g, rand.New(rand.NewSource(22))), Config{Horizon: 3})
	if !pre.Match.Total() {
		b.Fatal("the walk's pattern must match")
	}
	batch := updates.Generate(updates.Balanced(22, 4, 30), pre.G, pre.P)

	post := pre.Fork()
	affSets, changeLog := post.affectedData(batch.D, pre.G)
	newP := post.P.Clone()
	updates.ApplyPatternBatch(batch.P, newP)
	post.ensureHorizonFor(newP)
	old := pre.Match
	want := simulation.Run(newP, post.G, post.Engine)

	for _, bc := range []struct {
		name  string
		seeds func() shortest.ChangeLog
	}{
		{"changelog", func() shortest.ChangeLog { return changeLog }},
		{"tree+can", func() shortest.ChangeLog {
			cans := elim.CanSets(batch.P, old, pre.P, pre.G, pre.Engine)
			tree := ehtree.Build(elim.AffSetsFromApplication(batch.D, affSets), cans, func(up, ud elim.Info) bool {
				return elim.CrossEliminates(up, ud, old, post.Engine)
			})
			seeds := changeLog.Nodes
			for _, root := range tree.RootInfos() {
				if !root.U.Kind.IsData() {
					seeds = seeds.Union(root.Set)
				}
			}
			return shortest.ChangeLog{Nodes: seeds}
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			pass := func() (*simulation.Match, int) {
				seeds := bc.seeds()
				m, _ := simulation.Amend(old, newP, post.G, post.Engine, seeds)
				return m, seeds.Len()
			}
			got, seeds := pass()
			if !got.Equal(want) {
				b.Fatal("amended match differs from Run")
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(seeds), "seeds/op")
		})
	}
}
