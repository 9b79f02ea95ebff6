package partition

import (
	"math/rand"
	"testing"

	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/updates"
)

// BenchmarkApplyDataBatch is the batch rung of the ladder, on a graph
// with the shape of the repository benchmark's session_mixed dataset
// (4 000 nodes, 17 000 edges, 15 labels, homophily 0.95, horizon 3): one
// ΔGD of 60 updates applied to a fresh clone of the base engine, as a
// forked session applies it — with the intra engines absent, which is
// how a batched and ball-read engine runs, and materialised by one Dist,
// which is what having a point-distance reader costs every batch after.
func BenchmarkApplyDataBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	g := homophilousGraph(rng, 4000, 17000, 15, 0.95)
	p := pattern.New(g.Labels())
	batches := make([][]updates.Update, 8)
	for i := range batches {
		batches[i] = updates.Generate(updates.Balanced(int64(150+i), 0, 60), g, p).D
	}
	for _, mode := range []struct {
		name string
		read bool
	}{{"absent", false}, {"materialised", true}} {
		b.Run(mode.name, func(b *testing.B) {
			e := NewEngine(g, 3, WithMetrics(obs.NewRegistry()))
			e.Build()
			if mode.read {
				e.Dist(0, 1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g2 := g.Clone()
				c := e.CloneFor(g2).(*Engine)
				b.StartTimer()
				if _, _, err := c.ApplyDataBatch(batches[i%len(batches)], g2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
