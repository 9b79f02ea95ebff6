// Package testkit builds the instances every test suite runs on, from
// the generators the repository ships (datasets.GenerateSocial,
// patgen.Generate), and holds the two references those suites compare
// against: all-pairs hop counts by Floyd–Warshall (HopMatrix) and
// bounded simulation read straight off its definition (Simulation).
// Only _test.go files import it.
package testkit

import (
	"math/rand"
	"runtime"
	"testing"

	"uagpnm/internal/datasets"
	"uagpnm/internal/graph"
	"uagpnm/internal/patgen"
	"uagpnm/internal/pattern"
)

// prefAtt is the preferential-attachment share of every generated
// graph, the middle of the stand-in datasets' 0.5–0.7.
const prefAtt = 0.6

// Shape is the make-up of a generated instance: a social graph of Nodes
// nodes, about Edges edges and Labels role labels (datasets.LabelName),
// with a Homophily share of edges kept inside their source's label; and
// patterns of PatNodes nodes and PatEdges edges over the graph's first
// PatLabels labels (0: all of them), with finite bounds 1–3 and a Star
// share of them turned to "*".
type Shape struct {
	Nodes, Edges int
	Labels       int
	Homophily    float64

	PatNodes, PatEdges int
	PatLabels          int
	Star               float64
}

// Graph generates the shape's data graph from seed.
func (s Shape) Graph(seed int64) *graph.Graph {
	return datasets.GenerateSocial(datasets.SocialConfig{
		Nodes: s.Nodes, Edges: s.Edges, Labels: s.Labels,
		Homophily: s.Homophily, PrefAtt: prefAtt, Seed: seed,
	})
}

// newPattern generates one pattern of the shape over g's labels from seed.
func (s Shape) newPattern(seed int64, g *graph.Graph) *pattern.Graph {
	labels := patgen.LabelsOf(g)
	if s.PatLabels > 0 {
		labels = labels[:min(s.PatLabels, len(labels))]
	}
	p := patgen.Generate(patgen.Config{
		Nodes: s.PatNodes, Edges: s.PatEdges, Seed: seed, Labels: labels,
	}, g.Labels())
	if s.Star <= 0 {
		return p
	}
	rng := rand.New(rand.NewSource(^seed))
	var edges []pattern.Edge
	p.Edges(func(e pattern.Edge) { edges = append(edges, e) })
	for _, e := range edges {
		if rng.Float64() < s.Star {
			p.RemoveEdge(e.From, e.To)
			p.AddEdge(e.From, e.To, pattern.Star)
		}
	}
	return p
}

// Instance is the shape's graph and one pattern over it, both from seed.
func (s Shape) Instance(seed int64) (*graph.Graph, *pattern.Graph) {
	g := s.Graph(seed)
	return g, s.newPattern(seed, g)
}

// Patterns is the shape's graph and k patterns over it, the i-th from
// seed+i.
func (s Shape) Patterns(seed int64, k int) (*graph.Graph, []*pattern.Graph) {
	g := s.Graph(seed)
	ps := make([]*pattern.Graph, k)
	for i := range ps {
		ps[i] = s.newPattern(seed+int64(i), g)
	}
	return g, ps
}

// WithProcs sets the pool width (GOMAXPROCS) to k; the width the test
// started with comes back when it ends.
func WithProcs(t testing.TB, k int) {
	t.Helper()
	old := runtime.GOMAXPROCS(k)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}
