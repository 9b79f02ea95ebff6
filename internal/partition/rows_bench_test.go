package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/shortest"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// BenchmarkBallRow is the ball-row rung of the ladder, on a graph with
// the shape of the repository benchmark's hub_fan dataset: the first
// read of a row after the tables were dropped (cold: the row is built at
// radius 3; shallow: at radius 1; deepen: at radius 1, then read again at
// 3, which rebuilds it to that depth; source-only: a read that
// stops at its source, which builds nothing), a repeat read at
// radius 1 and 3 (warm: a scan of the materialised row), one 8-update
// batch through ApplyDataBatch followed by a re-read
// of the same 256 sources (after_batch: the rows the batch's change log
// names are rebuilt, the rest are hits), two such batches with one half
// of the sources re-read after each (alternating: each half skips every
// other epoch, and only the rows the change logs name are rebuilt — a
// store that dropped rows unread for an epoch would rebuild all 256 per
// iteration, even at -benchtime 1x) and a fork of the engine
// followed by a re-read on the fork (fork: the fork starts with its
// parent's rows), for rows read off the graph by BFS and rows stitched
// from the partitions.
func BenchmarkBallRow(b *testing.B) {
	for _, mode := range []struct {
		name string
		opts []Option
	}{
		{"inprocess", nil},
		{"stitched", []Option{WithStitchedQueries()}},
	} {
		rng := rand.New(rand.NewSource(12))
		g := testkit.HomophilousGraph(rng, 2000, 8000, 16, 0.9)
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

		stop := func(uint32, shortest.Dist) bool { return false }
		for _, c := range []struct {
			name string
			read func(x uint32)
		}{
			{"cold", func(x uint32) { e.ForwardBall(x, 3, visit) }},
			{"shallow", func(x uint32) { e.ForwardBall(x, 1, visit) }},
			{"deepen", func(x uint32) { e.ForwardBall(x, 1, visit); e.ForwardBall(x, 3, visit) }},
			{"source-only", func(x uint32) { e.ForwardBall(x, 3, stop) }},
		} {
			b.Run(mode.name+"/"+c.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if i%len(sources) == 0 {
						e.invalidate()
					}
					c.read(sources[i%len(sources)])
				}
			})
		}
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
		batches, next := toggleBatches(rng, g, 64), 0 // next runs on across b.N rounds: g follows the sequence
		b.Run(mode.name+"/after_batch", func(b *testing.B) {
			for _, x := range sources {
				e.ForwardBall(x, 3, visit)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := e.ApplyData(batches[next%len(batches)], g); err != nil {
					b.Fatal(err)
				}
				next++
				for _, x := range sources {
					e.ForwardBall(x, 3, visit)
				}
			}
		})
		b.Run(mode.name+"/alternating", func(b *testing.B) {
			for _, x := range sources {
				e.ForwardBall(x, 3, visit)
			}
			b.ReportAllocs()
			b.ResetTimer()
			half := len(sources) / 2
			for i := 0; i < b.N; i++ {
				for _, read := range [][]uint32{sources[:half], sources[half:]} {
					if _, err := e.ApplyData(batches[next%len(batches)], g); err != nil {
						b.Fatal(err)
					}
					next++
					for _, x := range read {
						e.ForwardBall(x, 3, visit)
					}
				}
			}
		})
		b.Run(mode.name+"/fork", func(b *testing.B) {
			for _, x := range sources {
				e.ForwardBall(x, 3, visit)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g2 := g.Clone()
				b.StartTimer()
				c := e.CloneFor(g2)
				for _, x := range sources {
					c.ForwardBall(x, 3, visit)
				}
			}
		})
		if entries == 0 {
			b.Fatal("the balls were empty")
		}
	}
}

// toggleBatches returns n 8-update batches over g that leave it as they
// found it in pairs: batch 2i deletes four edges and inserts four absent
// ones, batch 2i+1 undoes exactly that. Any prefix of even length
// applies cleanly from g's current state.
func toggleBatches(rng *rand.Rand, g *graph.Graph, n int) [][]updates.Update {
	var edges []graph.Edge
	g.Edges(func(e graph.Edge) { edges = append(edges, e) })
	nodes := uint32(g.NumIDs())
	var out [][]updates.Update
	for len(out) < n {
		var do, undo []updates.Update
		taken := map[graph.Edge]bool{}
		for _, i := range rng.Perm(len(edges))[:4] {
			ed := edges[i]
			taken[ed] = true
			do = append(do, updates.Update{Kind: updates.DataEdgeDelete, From: ed.From, To: ed.To})
			undo = append(undo, updates.Update{Kind: updates.DataEdgeInsert, From: ed.From, To: ed.To})
		}
		for added := 0; added < 4; {
			ed := graph.Edge{From: uint32(rng.Intn(int(nodes))), To: uint32(rng.Intn(int(nodes)))}
			if ed.From == ed.To || g.HasEdge(ed.From, ed.To) || taken[ed] {
				continue
			}
			taken[ed] = true
			added++
			do = append(do, updates.Update{Kind: updates.DataEdgeInsert, From: ed.From, To: ed.To})
			undo = append(undo, updates.Update{Kind: updates.DataEdgeDelete, From: ed.From, To: ed.To})
		}
		out = append(out, do, undo)
	}
	return out
}
