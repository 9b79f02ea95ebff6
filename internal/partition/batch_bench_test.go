package partition

import (
	"math/rand"
	"testing"

	"uagpnm/internal/obs"
	"uagpnm/internal/pattern"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// BenchmarkApplyDataBatch is the batch rung of the ladder, on a graph
// with the shape of the repository benchmark's session_mixed dataset
// (4 000 nodes, 17 000 edges, 15 labels, homophily 0.95, horizon 3): one
// ΔGD of 60 updates applied to a fresh clone of the base engine, as a
// forked session applies it, on both shapes — the ball plane every
// in-process session and hub runs on, and the in-process §V plane, whose
// batch also maintains the intra engines and reconciles the overlay.
func BenchmarkApplyDataBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(15))
	g := testkit.HomophilousGraph(rng, 4000, 17000, 15, 0.95)
	p := pattern.New(g.Labels())
	batches := make([][]updates.Update, 8)
	for i := range batches {
		batches[i] = updates.Generate(updates.Balanced(int64(150+i), 0, 60), g, p).D
	}
	for _, shape := range shapes() {
		b.Run(shape.name, func(b *testing.B) {
			e := NewEngine(g, 3, append(shape.opts, WithMetrics(obs.NewRegistry()))...)
			e.Build()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g2 := g.Clone()
				c := e.CloneFor(g2).(*Engine)
				b.StartTimer()
				if _, err := c.ApplyData(batches[i%len(batches)], g2); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
