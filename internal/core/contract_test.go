package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/partition"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
	"uagpnm/internal/simulation"
	"uagpnm/internal/testkit"
	"uagpnm/internal/updates"
)

// The engine a contract case runs its UA-GPNM session on.
const (
	onBallPlane = iota
	onSectionV
	onGlobal
)

var engineNames = [...]string{"ball plane", "in-process §V", "global"}

// contractCase is one FuzzContract input: an instance (testkit.Shape
// from seed), a script of rounds batches (updates.Balanced at
// batchSeed+round with pTotal/dTotal updates, a star share of the
// pattern-edge inserts turned to "*"), the horizon (its byte mod 4: 0
// exact, else that many hops, the pattern's and the inserts' bounds
// drawn no larger), the UA session's engine and the pool width it all
// runs at. The fuzzer's raw values are folded into range by run.
type contractCase struct {
	seed                     int64
	nodes                    uint8
	edges                    uint16
	labels, homophily        uint8
	patNodes, patEdges, star uint8
	horizon, engine, procs   uint8
	batchSeed                int64
	rounds, pTotal, dTotal   uint8
}

// agreeTrials are TestAllMethodsAgree's trials: 30 nodes, 80 edges, 4
// labels, (4,5) patterns, three rounds of Balanced(trial·100+round, 3,
// 10), at both horizons.
func agreeTrials() []contractCase {
	var cs []contractCase
	for _, h := range []uint8{0, 3} {
		for trial := range 6 {
			cs = append(cs, contractCase{seed: int64(500 + trial), nodes: 30, edges: 80, labels: 4,
				patNodes: 4, patEdges: 5, horizon: h, procs: 2, batchSeed: int64(trial * 100),
				rounds: 3, pTotal: 3, dTotal: 10})
		}
	}
	return cs
}

// scriptTrials are TestDifferentialRandomScripts' trials: 50 nodes, 140
// edges, 5 labels, (5,6) patterns, four rounds of Balanced(seed·100+
// round, 3, 14), UA-GPNM 1, 4 and 8 wide, at both horizons.
func scriptTrials() []contractCase {
	var cs []contractCase
	for _, h := range []uint8{0, 3} {
		for trial := range 5 {
			seed := int64(31000 + trial)
			for _, procs := range []uint8{1, 4, 8} {
				cs = append(cs, contractCase{seed: seed, nodes: 50, edges: 140, labels: 5,
					patNodes: 5, patEdges: 6, horizon: h, procs: procs, batchSeed: seed * 100,
					rounds: 4, pTotal: 3, dTotal: 14})
			}
		}
	}
	return cs
}

// stressTrial is TestDifferentialStressParallel's trial: 90 nodes, 280
// edges, 6 labels, (6,7) patterns, 8 wide, six rounds of
// Balanced(880+round, 4, 30).
var stressTrial = contractCase{seed: 777, nodes: 90, edges: 280, labels: 6, patNodes: 6, patEdges: 7,
	horizon: 3, procs: 8, batchSeed: 880, rounds: 6, pTotal: 4, dTotal: 30}

// contractSeeds are FuzzContract's corpus: the trials of the three
// random loops it generalises, at their seeds, sizes, batch seeds and
// widths, then the shapes they never reached ("*" bounds, sinks,
// homophily, the §V and global engines, horizons 1 and 2, where a
// radius-0 ball and the change log's depths sit at their edges).
func contractSeeds() []contractCase {
	cs := append(agreeTrials(), scriptTrials()...)
	cs = append(cs, stressTrial)
	// Past the old loops: "*" in the pattern and in its inserts, trees
	// (a sink per leaf), homophilous graphs, every engine at both
	// horizons.
	for i, e := range []uint8{onBallPlane, onSectionV, onGlobal} {
		for _, h := range []uint8{0, 3} {
			cs = append(cs,
				contractCase{seed: int64(41 + i), nodes: 40, edges: 110, labels: 3, homophily: 80,
					patNodes: 5, patEdges: 7, star: 30, horizon: h, engine: e, procs: 2,
					batchSeed: int64(4100 + i), rounds: 4, pTotal: 4, dTotal: 12},
				contractCase{seed: int64(51 + i), nodes: 60, edges: 150, labels: 4, homophily: 50,
					patNodes: 6, patEdges: 5, star: 50, horizon: h, engine: e, procs: 4,
					batchSeed: int64(5100 + i), rounds: 3, pTotal: 6, dTotal: 16})
		}
	}
	// Shallow horizons, bounds within them, on the engines whose change
	// logs differ in make: the ball plane's balls and the global
	// engine's matrix diffs.
	for i, e := range []uint8{onBallPlane, onGlobal} {
		for _, h := range []uint8{1, 2} {
			cs = append(cs,
				contractCase{seed: int64(61 + i), nodes: 40, edges: 110, labels: 3, homophily: 80,
					patNodes: 5, patEdges: 6, star: 20, horizon: h, engine: e, procs: 2,
					batchSeed: int64(6100 + i), rounds: 4, pTotal: 4, dTotal: 14},
				contractCase{seed: int64(71 + i), nodes: 60, edges: 160, labels: 4, homophily: 50,
					patNodes: 6, patEdges: 5, horizon: h, engine: e, procs: 4,
					batchSeed: int64(7100 + i), rounds: 3, pTotal: 6, dTotal: 20})
		}
	}
	return cs
}

// The three random loops FuzzContract generalises keep their names:
// each runs its own trials through the contract, so a failure names the
// trial family it came from.

func TestAllMethodsAgree(t *testing.T) {
	for _, c := range agreeTrials() {
		t.Run(c.String(), c.run)
	}
}

func TestDifferentialRandomScripts(t *testing.T) {
	for _, c := range scriptTrials() {
		t.Run(c.String(), c.run)
	}
}

func TestDifferentialStressParallel(t *testing.T) {
	stressTrial.run(t)
}

// FuzzContract is the paper's contract under any input: after every
// batch every method's match equals Scratch's, Scratch's equals the
// reference read off the definition of bounded simulation
// (testkit.Simulation over Floyd–Warshall hop counts, sharing no code
// with the engines), and a session on the same instance with every
// label renamed by a bijection holds the same relation. Relations are
// compared per pattern node, so the all-nonempty projection cannot
// hide a difference. Plain `go test` runs the seed corpus.
func FuzzContract(f *testing.F) {
	for _, c := range contractSeeds() {
		f.Add(c.seed, c.nodes, c.edges, c.labels, c.homophily, c.patNodes, c.patEdges, c.star,
			c.horizon, c.engine, c.procs, c.batchSeed, c.rounds, c.pTotal, c.dTotal)
	}
	f.Fuzz(func(t *testing.T, seed int64, nodes uint8, edges uint16, labels, homophily, patNodes, patEdges, star,
		horizon, engine, procs uint8, batchSeed int64, rounds, pTotal, dTotal uint8) {
		contractCase{seed, nodes, edges, labels, homophily, patNodes, patEdges, star,
			horizon, engine, procs, batchSeed, rounds, pTotal, dTotal}.run(t)
	})
}

// String names a trial by its seed, horizon and width.
func (c contractCase) String() string {
	return fmt.Sprintf("seed%d/h%d/w%d", c.seed, c.hops(), c.procs)
}

// hops is the case's horizon: 0 (exact), 1, 2 or 3.
func (c contractCase) hops() int { return int(c.horizon % 4) }

func (c contractCase) run(t *testing.T) {
	n := max(2, int(c.nodes))
	shape := testkit.Shape{
		Nodes: n, Edges: int(c.edges) % (4*n + 1), Labels: max(1, int(c.labels)%9),
		Homophily: float64(c.homophily%101) / 100,
		PatNodes:  max(1, int(c.patNodes)%9), PatEdges: int(c.patEdges) % 17,
		Star: float64(c.star%101) / 100,
	}
	horizon := c.hops()
	gen := func(seed int64) updates.GenConfig {
		return updates.Balanced(seed, int(c.pTotal)%9, int(c.dTotal)%41)
	}
	if horizon == 1 || horizon == 2 {
		// Bounds beyond the horizon would widen it at once.
		shape.BoundMax = horizon
		gen = func(seed int64) updates.GenConfig {
			cfg := updates.Balanced(seed, int(c.pTotal)%9, int(c.dTotal)%41)
			cfg.BoundMax = horizon
			return cfg
		}
	}
	testkit.WithProcs(t, max(1, int(c.procs)%9))
	g, p := shape.Instance(c.seed)
	cfg := Config{Horizon: horizon}

	names := make([]string, 0, len(Methods)+1)
	var ss []*Session
	for _, m := range Methods {
		if m == UAGPNM {
			continue
		}
		cfg.Method = m
		names = append(names, m.String())
		ss = append(ss, NewSession(g.Clone(), p.Clone(), cfg))
	}
	cfg.Method = UAGPNM
	ua := contractSession(t, g.Clone(), p.Clone(), cfg, c.engine%3)
	names = append(names, "UA-GPNM on the "+engineNames[c.engine%3])
	ss = append(ss, ua)
	rg, rp, rename := renamed(g, p)
	twin := contractSession(t, rg, rp, cfg, c.engine%3)

	refHorizon := horizon
	for round := range max(1, int(c.rounds)%9) {
		scratch := ss[0]
		b := updates.Generate(gen(c.batchSeed+int64(round)), scratch.G, scratch.P)
		// updates.Generate draws finite bounds only: turn the star share
		// of the pattern-edge inserts to "*".
		rng := rand.New(rand.NewSource(c.batchSeed + int64(round)))
		for i, u := range b.P {
			if u.Kind == updates.PatternEdgeInsert && rng.Float64() < shape.Star {
				b.P[i].Bound = pattern.Star
			}
		}
		want := scratch.SQuery(b)
		for i, s := range ss[1:] {
			prev, before := s.Match, images(s.Match)
			if got := s.SQuery(b); !got.Equal(want) {
				t.Fatalf("round %d: %s differs from Scratch (batch %v | %v)", round, names[i+1], b.P, b.D)
			}
			// The amended match shares images with prev, which no pass may write.
			prev.Pattern().Nodes(func(u pattern.NodeID) {
				if got := prev.SimulationSet(u); !got.Equal(before[u]) {
					t.Fatalf("round %d: %s's SQuery wrote its previous match: sim(%d) %v, was %v",
						round, names[i+1], u, got, before[u])
				}
			})
		}
		if horizon != 0 {
			refHorizon = max(refHorizon, scratch.P.MaxFiniteBound())
		}
		ref := testkit.Simulation(scratch.G, scratch.P, refHorizon)
		scratch.P.Nodes(func(u pattern.NodeID) {
			if got := want.SimulationSet(u); !slices.Equal([]uint32(got), ref[u]) {
				t.Fatalf("round %d: Scratch's sim(%d) = %v, the reference's %v (batch %v | %v)",
					round, u, got, ref[u], b.P, b.D)
			}
		})
		got := twin.SQuery(rename(b))
		ua.P.Nodes(func(u pattern.NodeID) {
			if a, r := ua.Match.SimulationSet(u), got.SimulationSet(u); !a.Equal(r) {
				t.Fatalf("round %d: renaming the labels moved sim(%d): %v, renamed %v", round, u, a, r)
			}
		})
	}
}

// images snapshots every simulation image of m, indexed by pattern node.
func images(m *simulation.Match) []nodeset.Set {
	out := make([]nodeset.Set, m.Pattern().NumIDs())
	m.Pattern().Nodes(func(u pattern.NodeID) { out[u] = m.SimulationSet(u) })
	return out
}

// contractSession is a UA-GPNM session on the chosen engine; a §V
// engine is closed when t ends.
func contractSession(t *testing.T, g *graph.Graph, p *pattern.Graph, cfg Config, engine uint8) *Session {
	var eng shortest.DistanceEngine
	switch engine {
	case onBallPlane:
		return NewSession(g, p, cfg)
	case onSectionV:
		eng = partition.NewEngine(g, cfg.Horizon, partition.WithStitchedQueries())
	default:
		eng = shortest.NewEngine(g, cfg.Horizon)
	}
	eng.Build()
	s := NewSessionWith(g, p, eng, cfg)
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// renamed copies g and p with every label renamed by a bijection and
// interned in reverse order, so names and label ids both move; node ids
// stay. It returns the rename for batches too.
func renamed(g *graph.Graph, p *pattern.Graph) (*graph.Graph, *pattern.Graph, func(updates.Batch) updates.Batch) {
	name := func(l string) string { return "renamed-" + l }
	lt := graph.NewLabels()
	for l := g.Labels().Count() - 1; l >= 0; l-- {
		lt.Intern(name(g.Labels().Name(graph.LabelID(l))))
	}
	rg := graph.New(lt)
	for id := range uint32(g.NumIDs()) {
		var ls []string
		for _, l := range g.NodeLabels(id) {
			ls = append(ls, name(g.Labels().Name(l)))
		}
		rg.AddNode(ls...)
	}
	g.Edges(func(e graph.Edge) { rg.AddEdge(e.From, e.To) })
	rp := pattern.New(lt)
	for u := range pattern.NodeID(p.NumIDs()) {
		rp.AddNamedNode(p.Name(u), name(p.LabelName(u)))
	}
	p.Edges(func(e pattern.Edge) { rp.AddEdge(e.From, e.To, e.B) })
	return rg, rp, func(b updates.Batch) updates.Batch {
		out := updates.Batch{P: append([]updates.Update(nil), b.P...), D: append([]updates.Update(nil), b.D...)}
		for _, us := range [][]updates.Update{out.P, out.D} {
			for i := range us {
				ls := make([]string, len(us[i].Labels))
				for j, l := range us[i].Labels {
					ls[j] = name(l)
				}
				us[i].Labels = ls
			}
		}
		return out
	}
}
