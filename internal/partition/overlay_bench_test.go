package partition

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// churnAnchors applies n edge replacements (delete one edge, insert one
// from the same source) to g and e the way ApplyDataBatch's phase 2
// does — each staged as it lands, then one flush — and returns the
// overlay anchors they dirtied.
func churnAnchors(rng *rand.Rand, g *graph.Graph, e *Engine, n int) nodeset.Set {
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	sv := e.sv()
	for i := 0; i < n; i++ {
		u := live[rng.Intn(len(live))]
		out := g.Out(u)
		if len(out) == 0 {
			continue
		}
		v := out[rng.Intn(len(out))]
		g.RemoveEdge(u, v)
		sv.stage(updates.Update{Kind: updates.DataEdgeDelete, From: u, To: v}, nil)
		if w := live[rng.Intn(len(live))]; g.AddEdge(u, w) {
			sv.stage(updates.Update{Kind: updates.DataEdgeInsert, From: u, To: w}, nil)
		}
	}
	sv.flush()
	anchors := sv.dirty.Set()
	sv.dirty = nodeset.Builder{}
	return anchors
}

// BenchmarkOverlaySync is the measurement behind rebuildFraction: the
// time of a scoped recompute against a build from scratch, as the
// anchors dirtied by a growing number of edge updates cover a
// growing share (anchor_frac) of the bridge nodes. The graphs have the
// shapes of the repository benchmark's two hub datasets; fan2000-fleet
// is fan2000 (same graph, same churn) served by two loopback workers,
// so its adjacency fill reads intra rows from the RPC client's cache, as
// a sharded deployment's does.
func BenchmarkOverlaySync(b *testing.B) {
	for _, shape := range []struct {
		name             string
		n, m, labels     int
		homophily        float64
		fleet            bool
		updatesPerSample []int
	}{
		{"sync4000", 4000, 16000, 24, 0.8, false, []int{15, 40, 60, 80, 100, 120, 250, 1000}},
		{"fan2000", 2000, 8000, 16, 0.9, false, []int{8, 20, 30, 40, 50, 60, 120, 500}},
		{"fan2000-fleet", 2000, 8000, 16, 0.9, true, []int{8, 20, 30, 40, 50, 60, 120, 500}},
	} {
		for _, updates := range shape.updatesPerSample {
			rng := rand.New(rand.NewSource(12))
			g := testkit.Shape{Nodes: shape.n, Edges: shape.m, Labels: shape.labels, Homophily: shape.homophily}.Graph(rng.Int63())
			opts := []Option{WithStitchedQueries()}
			if shape.fleet {
				opts = []Option{WithShards(httptestFleet(b, 2)...)}
			}
			e := NewEngine(g, 3, opts...)
			e.Build()
			anchors := churnAnchors(rng, g, e, updates)
			frac := float64(len(anchors)) / float64(e.sv().ov.bridges())
			name := fmt.Sprintf("%s/updates=%d", shape.name, updates)
			b.Run(name+"/scoped", func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(frac, "anchor_frac")
				for i := 0; i < b.N; i++ {
					e.sv().ov.recompute(anchors)
				}
			})
			b.Run(name+"/build", func(b *testing.B) {
				b.ReportAllocs()
				b.ReportMetric(frac, "anchor_frac")
				for i := 0; i < b.N; i++ {
					e.sv().ov.build()
				}
			})
		}
	}
}
