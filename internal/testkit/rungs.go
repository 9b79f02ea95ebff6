package testkit

import (
	"math/rand"

	"uagpnm/internal/graph"
)

// The two graphs below are the inputs the allocation gate's rungs were
// recorded on (tools/benchgate, BENCH_rungs.json): UniformGraph under
// shortest's BenchmarkBuild, HomophilousGraph under partition's
// BenchmarkBallRow and BenchmarkApplyDataBatch. A rung's record holds
// only for the graph it was read on, so these stay as they were until a
// change to the benchmarks re-records the file on Shape's graphs; every
// test builds its instances through Shape.

// UniformGraph is n nodes with labels A–D drawn uniformly and m edge
// draws between uniform endpoints (self-loops and repeats dropped).
func UniformGraph(rng *rand.Rand, n, m int) *graph.Graph {
	g := graph.New(nil)
	labels := []string{"A", "B", "C", "D"}
	for i := 0; i < n; i++ {
		g.AddNode(labels[rng.Intn(len(labels))])
	}
	for i := 0; i < m; i++ {
		g.AddEdge(uint32(rng.Intn(n)), uint32(rng.Intn(n)))
	}
	return g
}

// HomophilousGraph is n nodes in labels uniform over A, B, …, and m edge
// draws from a uniform label class, each kept inside the class with
// probability h and aimed at a uniform node otherwise.
func HomophilousGraph(rng *rand.Rand, n, m, labels int, h float64) *graph.Graph {
	g := graph.New(nil)
	labelNames := make([]string, labels)
	for i := range labelNames {
		labelNames[i] = string(rune('A' + i))
	}
	byLabel := make([][]uint32, labels)
	for i := 0; i < n; i++ {
		l := rng.Intn(labels)
		id := g.AddNode(labelNames[l])
		byLabel[l] = append(byLabel[l], id)
	}
	for i := 0; i < m; i++ {
		l := rng.Intn(labels)
		if len(byLabel[l]) < 2 {
			continue
		}
		u := byLabel[l][rng.Intn(len(byLabel[l]))]
		var v uint32
		if rng.Float64() < h {
			v = byLabel[l][rng.Intn(len(byLabel[l]))]
		} else {
			v = uint32(rng.Intn(n))
		}
		g.AddEdge(u, v)
	}
	return g
}
