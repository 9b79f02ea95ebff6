package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/shortest"
)

// BenchmarkBallRow is the ball-row rung of the ladder, on a graph with
// the shape of the repository benchmark's hub_fan dataset: the first
// read of a row after a mutation (cold: the row is built) and a repeat
// read at radius 1 and 3 (warm: a scan of the materialised row), for
// rows read off the graph by BFS and rows stitched from the partitions.
func BenchmarkBallRow(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"inprocess", nil},
		{"stitched", []Option{WithStitchedQueries()}},
	} {
		rng := rand.New(rand.NewSource(12))
		g := homophilousGraph(rng, 2000, 8000, 16, 0.9)
		e := NewEngine(g, 3, mode.opts...)
		e.Build()
		var sources []uint32
		g.Nodes(func(id uint32) {
			if len(sources) < 256 && id%7 == 0 {
				sources = append(sources, id)
			}
		})
		entries := 0
		visit := func(uint32, shortest.Dist) bool { entries++; return true }

		b.Run(mode.name+"/cold", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if i%len(sources) == 0 {
					e.invalidate()
				}
				e.ForwardBall(sources[i%len(sources)], 3, visit)
			}
		})
		for _, k := range []int{1, 3} {
			b.Run(fmt.Sprintf("%s/warm_k%d", mode.name, k), func(b *testing.B) {
				for _, x := range sources {
					e.ForwardBall(x, 3, visit)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					e.ForwardBall(sources[i%len(sources)], k, visit)
				}
			})
		}
		if entries == 0 {
			b.Fatal("the balls were empty")
		}
	}
}
