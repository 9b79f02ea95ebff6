package simulation

import (
	"fmt"
	"math/rand"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/updates"
)

// graphShape is a generated dataset's size: nodes, edges, labels and the
// share of edges that stay within a label.
type graphShape struct {
	n, m, labels int
	homophily    float64
}

// The shapes of two of the repository benchmark's datasets.
var (
	fanShape     = graphShape{2000, 8000, 16, 0.9}
	sessionShape = graphShape{4000, 17000, 15, 0.95}
	wideShape    = graphShape{200000, 800000, 4, 0.9}
)

// walkShaped builds a graph of the given shape and a pattern of
// patNodes nodes and edges read off a walk in it, so the match is total:
// the walk's edges at bound 1 and the chord 0→2 at bound 2. The walk
// leaves its label whenever it can and the bounds are the walk's own hop
// counts, which keeps the images a few nodes each, as the datasets'
// witnessed patterns are.
func walkShaped(rng *rand.Rand, sh graphShape, patNodes int) (*graph.Graph, *pattern.Graph, []uint32) {
	n := sh.n
	g := graph.New(nil)
	byLabel := make([][]uint32, sh.labels)
	for i := 0; i < n; i++ {
		l := rng.Intn(sh.labels)
		byLabel[l] = append(byLabel[l], g.AddNode(string(rune('A'+l))))
	}
	for i := 0; i < sh.m; i++ {
		bucket := byLabel[rng.Intn(sh.labels)]
		u, v := bucket[rng.Intn(len(bucket))], uint32(rng.Intn(n))
		if rng.Float64() < sh.homophily {
			v = bucket[rng.Intn(len(bucket))]
		}
		g.AddEdge(u, v)
	}
	for {
		walk := []uint32{uint32(rng.Intn(n))}
		for len(walk) < patNodes && len(g.Out(walk[len(walk)-1])) > 0 {
			at := walk[len(walk)-1]
			next := g.Out(at)[rng.Intn(len(g.Out(at)))]
			for _, v := range g.Out(at) {
				if g.NodeLabels(v)[0] != g.NodeLabels(at)[0] {
					next = v
				}
			}
			walk = append(walk, next)
		}
		if len(walk) < patNodes {
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
// pass.
//
// fan: over a hub_fan-shaped graph on the ball plane hub_fan serves
// from, after a hub_fan-sized batch — the churn unit (a matched node
// deleted and re-inserted under a new id with its label and neighbours)
// plus edge toggles, eight updates in all. The rows a pass reads stay
// built across iterations, so it times a warm pass; a served batch first
// drops the rows of the sources its change log names.
//
// session_mixed: over a session_mixed-shaped graph and (8,8) pattern on
// the ball plane session_mixed runs on, with a random 1 %, 10 % or 33 %
// of the live nodes as the seeds — the change log's share of the graph —
// beside a from-scratch Run (run) under the same conditions. Each pass
// starts on empty row tables, so it pays for every row it reads.
//
// wide: over a 200 000-id graph in four labels, with sixteen seeds and
// one engine whose rows stay built across passes, so a pass reads few
// rows, all of them warm: what it costs is what it pays per id and per
// label, not per ball entry.
func BenchmarkAmend(b *testing.B) {
	b.Run("fan", benchAmendFan)
	b.Run("wide", benchAmendWide)
	rng := rand.New(rand.NewSource(97))
	g, p, _ := walkShaped(rng, sessionShape, 8)
	fresh := func() *partition.Engine {
		e := partition.NewEngine(g, 3)
		e.Build()
		return e
	}
	old := Run(p, g, fresh())
	if !old.Total() {
		b.Fatal("the walk's pattern must match")
	}
	var live []uint32
	g.Nodes(func(id uint32) { live = append(live, id) })
	for _, pct := range []int{1, 10, 33} {
		var seeds nodeset.Builder
		for _, i := range rng.Perm(len(live))[:len(live)*pct/100] {
			seeds.Add(live[i])
		}
		set := seeds.Set()
		b.Run(fmt.Sprintf("session_mixed/seeds-%d%%", pct), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				e := fresh()
				b.StartTimer()
				benchSink = amend(old, p, g, e, shortest.ChangeLog{Nodes: set}).SimulationSet(0)
			}
		})
	}
	b.Run("session_mixed/run", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := fresh()
			b.StartTimer()
			benchSink = Run(p, g, e).SimulationSet(0)
		}
	})
}

func benchAmendFan(b *testing.B) {
	rng := rand.New(rand.NewSource(96))
	g, p, walk := walkShaped(rng, fanShape, 6)
	e := partition.NewEngine(g, 3)
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
	seeds, _ := e.ApplyData(batch, g)
	want := Run(p, g, e)

	if got := amend(old, p, g, e, seeds); !got.Equal(want) {
		b.Fatal("amended match differs from Run")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = amend(old, p, g, e, seeds).SimulationSet(0)
	}
}

func benchAmendWide(b *testing.B) {
	rng := rand.New(rand.NewSource(98))
	g, p, _ := walkShaped(rng, wideShape, 8)
	e := partition.NewEngine(g, 3)
	e.Build()
	old := Run(p, g, e)
	if !old.Total() {
		b.Fatal("the walk's pattern must match")
	}
	var seeds nodeset.Builder
	for i := 0; i < 16; i++ {
		seeds.Add(uint32(rng.Intn(g.NumIDs())))
	}
	set := seeds.Set()
	benchSink = amend(old, p, g, e, shortest.ChangeLog{Nodes: set}).SimulationSet(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = amend(old, p, g, e, shortest.ChangeLog{Nodes: set}).SimulationSet(0)
	}
}

var benchSink nodeset.Set
