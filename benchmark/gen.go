package main

// Input generators. Everything the program under test receives is made
// here: the data graph and the witnessed patterns from a constant (see
// datasetSeed in workload.go), the churn update stream and the pattern
// updates from the run's seed. They are deliberately independent of the repo's
// own generators (internal/datasets, internal/patgen, updates.Balanced),
// so a later change to those cannot move the benchmark's inputs, and
// because the legacy ones are not fit to be measured on: Balanced erodes
// the graph it runs on (a node delete takes ~8 edges, the paired insert
// returns none) and random patgen patterns are usually not totally
// matched, which makes the delivered result empty.

import (
	"fmt"
	"math/rand"

	"uagpnm"
	"uagpnm/internal/pattern"
)

// graphSpec sizes one synthetic social graph.
type graphSpec struct {
	Nodes     int     `json:"nodes"`
	Edges     int     `json:"edges"`
	Labels    int     `json:"labels"`
	Homophily float64 `json:"homophily"`
}

// prefAtt is the probability an edge endpoint is drawn degree-
// proportionally rather than uniformly (heavy-tailed degrees).
const prefAtt = 0.6

func labelName(i int) string { return fmt.Sprintf("L%02d", i) }

// genGraph builds a directed label-homophilous graph with heavy-tailed
// degrees: label classes have mildly skewed sizes, and with probability
// Homophily an edge stays inside its source's class.
func genGraph(rng *rand.Rand, spec graphSpec) *uagpnm.Graph {
	g := uagpnm.NewGraph()
	weights := make([]float64, spec.Labels)
	total := 0.0
	for i := range weights {
		weights[i] = 1 / (1 + float64(i)/4)
		total += weights[i]
	}
	byLabel := make([][]uagpnm.NodeID, spec.Labels)
	labelOf := make([]int, spec.Nodes)
	for i := 0; i < spec.Nodes; i++ {
		r := rng.Float64() * total
		l := 0
		for ; l < spec.Labels-1 && r >= weights[l]; l++ {
			r -= weights[l]
		}
		id := g.AddNode(labelName(l))
		byLabel[l] = append(byLabel[l], id)
		labelOf[id] = l
	}
	var srcPool, dstPool []uagpnm.NodeID
	uniform := func() uagpnm.NodeID { return uagpnm.NodeID(rng.Intn(spec.Nodes)) }
	for added, tries := 0, 0; added < spec.Edges && tries < spec.Edges*30; tries++ {
		u := uniform()
		if len(srcPool) > 0 && rng.Float64() < prefAtt {
			u = srcPool[rng.Intn(len(srcPool))]
		}
		var v uagpnm.NodeID
		switch members := byLabel[labelOf[u]]; {
		case rng.Float64() < spec.Homophily && len(members) > 1:
			v = members[rng.Intn(len(members))]
		case len(dstPool) > 0 && rng.Float64() < prefAtt:
			v = dstPool[rng.Intn(len(dstPool))]
		default:
			v = uniform()
		}
		if u != v && g.AddEdge(u, v) {
			srcPool = append(srcPool, u)
			dstPool = append(dstPool, v)
			added++
		}
	}
	return g
}

// graphShape is what the churn stream must keep stationary.
type graphShape struct {
	Nodes      int
	Edges      int
	LabelHist  map[string]int
	CrossLabel float64 // fraction of edges whose endpoints differ in label
}

func nodeLabel(g *uagpnm.Graph, id uagpnm.NodeID) string {
	return g.Labels().Name(g.NodeLabels(id)[0])
}

func shapeOf(g *uagpnm.Graph) graphShape {
	s := graphShape{Nodes: g.NumNodes(), Edges: g.NumEdges(), LabelHist: map[string]int{}}
	g.Nodes(func(id uagpnm.NodeID) { s.LabelHist[nodeLabel(g, id)]++ })
	cross := 0
	g.Nodes(func(u uagpnm.NodeID) {
		for _, v := range g.Out(u) {
			if g.NodeLabels(u)[0] != g.NodeLabels(v)[0] {
				cross++
			}
		}
	})
	if s.Edges > 0 {
		s.CrossLabel = float64(cross) / float64(s.Edges)
	}
	return s
}

// churn generates a stationary ΔGD stream against its own mirror of the
// data graph. Two kinds of unit, both label-preserving:
//
//   - edge churn: delete u→v, insert u→v' with label(v') == label(v);
//   - node churn: delete x, insert a same-label node, re-attach it to
//     x's old neighbours (x is drawn among nodes of degree ≤ maxChurnDegree
//     so the unit fits a batch and no edge is lost).
//
// |V|, |E|, the label histogram and the (source label, target label)
// edge histogram are therefore invariant up to the odd leftover update
// of a batch, which alternates between an insert and a delete.
type churn struct {
	g       *uagpnm.Graph
	rng     *rand.Rand
	surplus int // edges inserted minus deleted by leftover updates
}

const maxChurnDegree = 8

func newChurn(mirror *uagpnm.Graph, rng *rand.Rand) *churn {
	return &churn{g: mirror, rng: rng}
}

func (c *churn) randomNode() uagpnm.NodeID {
	for {
		id := uagpnm.NodeID(c.rng.Intn(c.g.NumIDs()))
		if c.g.Alive(id) {
			return id
		}
	}
}

func (c *churn) randomEdge() (u, v uagpnm.NodeID) {
	for {
		u = c.randomNode()
		if out := c.g.Out(u); len(out) > 0 {
			return u, out[c.rng.Intn(len(out))]
		}
	}
}

// sameLabelTarget draws a node labelled like v that u has no edge to,
// preferring edge targets (so in-degree stays heavy-tailed).
func (c *churn) sameLabelTarget(u, v uagpnm.NodeID) (uagpnm.NodeID, bool) {
	want := c.g.NodeLabels(v)[0]
	for try := 0; try < 256; try++ {
		var cand uagpnm.NodeID
		if try < 128 {
			_, cand = c.randomEdge()
		} else {
			cand = c.randomNode()
		}
		if cand != u && cand != v && c.g.NodeLabels(cand)[0] == want && !c.g.HasEdge(u, cand) {
			return cand, true
		}
	}
	return 0, false
}

func (c *churn) apply(batch []uagpnm.Update, u uagpnm.Update) []uagpnm.Update {
	uagpnm.ApplyDataUpdates(c.g, []uagpnm.Update{u})
	return append(batch, u)
}

func (c *churn) edgeUnit(batch []uagpnm.Update) []uagpnm.Update {
	for {
		u, v := c.randomEdge()
		if w, ok := c.sameLabelTarget(u, v); ok {
			batch = c.apply(batch, uagpnm.DeleteEdge(u, v))
			return c.apply(batch, uagpnm.InsertEdge(u, w))
		}
	}
}

// nodeUnit emits one node churn unit if one of at most room updates can
// be found.
func (c *churn) nodeUnit(batch []uagpnm.Update, room int) []uagpnm.Update {
	for try := 0; try < 64; try++ {
		x := c.randomNode()
		outs := append([]uagpnm.NodeID(nil), c.g.Out(x)...)
		ins := append([]uagpnm.NodeID(nil), c.g.In(x)...)
		deg := len(outs) + len(ins)
		if deg == 0 || deg > maxChurnDegree || 2+deg > room {
			continue
		}
		label := nodeLabel(c.g, x)
		batch = c.apply(batch, uagpnm.DeleteNode(x))
		id := uagpnm.NodeID(c.g.NumIDs())
		batch = c.apply(batch, uagpnm.InsertNode(id, label))
		for _, y := range outs {
			if y != x {
				batch = c.apply(batch, uagpnm.InsertEdge(id, y))
			}
		}
		for _, z := range ins {
			if z != x {
				batch = c.apply(batch, uagpnm.InsertEdge(z, id))
			}
		}
		return batch
	}
	return batch
}

// batch emits exactly n data updates and applies them to the mirror.
func (c *churn) batch(n int) []uagpnm.Update {
	out := make([]uagpnm.Update, 0, n)
	for units := max(1, n/40); units > 0 && n-len(out) >= 3; units-- {
		out = c.nodeUnit(out, n-len(out))
	}
	for n-len(out) >= 2 {
		out = c.edgeUnit(out)
	}
	if len(out) < n {
		u, v := c.randomEdge()
		if c.surplus > 0 {
			out = c.apply(out, uagpnm.DeleteEdge(u, v))
			c.surplus--
		} else if w, ok := c.sameLabelTarget(u, v); ok {
			out = c.apply(out, uagpnm.InsertEdge(u, w))
			c.surplus++
		} else {
			out = c.apply(out, uagpnm.DeleteEdge(u, v))
			c.surplus--
		}
	}
	return out
}

// witnessed is a pattern sampled from the data graph together with the
// data nodes it was sampled from. The witnesses satisfy every pattern
// edge (bound = length of the walk that found the neighbour), so they
// form a simulation relation and the pattern is totally matched on the
// graph it was sampled from.
type witnessed struct {
	P       *uagpnm.Pattern
	Witness []uagpnm.NodeID // by pattern node id
	// Toggle is a witnessed edge held back from P: inserting and later
	// deleting it is a ΔGP that keeps the pattern total.
	Toggle patEdge
}

type patEdge struct {
	From, To uagpnm.PatternNodeID
	Bound    uagpnm.Bound
}

const maxBound = 3

// walk takes 1..maxBound random steps from src along out-edges (or
// in-edges when reverse) and returns where it ended and how many steps
// it took; ok is false when it got stuck or returned to src.
func walk(rng *rand.Rand, g *uagpnm.Graph, src uagpnm.NodeID, reverse bool) (end uagpnm.NodeID, steps int, ok bool) {
	end = src
	for want := 1 + rng.Intn(maxBound); steps < want; steps++ {
		next := g.Out(end)
		if reverse {
			next = g.In(end)
		}
		if len(next) == 0 {
			break
		}
		end = next[rng.Intn(len(next))]
	}
	return end, steps, steps > 0 && end != src
}

// hopsWithin returns the hop distance from src to every node within
// maxBound hops along out-edges.
func hopsWithin(g *uagpnm.Graph, src uagpnm.NodeID) map[uagpnm.NodeID]int {
	dist := map[uagpnm.NodeID]int{src: 0}
	frontier := []uagpnm.NodeID{src}
	for d := 1; d <= maxBound; d++ {
		var next []uagpnm.NodeID
		for _, u := range frontier {
			for _, v := range g.Out(u) {
				if _, seen := dist[v]; !seen {
					dist[v] = d
					next = append(next, v)
				}
			}
		}
		frontier = next
	}
	return dist
}

// witnessedExtraEdges lists every absent pattern edge the witnesses
// would satisfy, with the tightest bound.
func witnessedExtraEdges(g *uagpnm.Graph, w *witnessed) []patEdge {
	var out []patEdge
	w.P.Nodes(func(i uagpnm.PatternNodeID) {
		dist := hopsWithin(g, w.Witness[i])
		w.P.Nodes(func(j uagpnm.PatternNodeID) {
			if i == j {
				return
			}
			if _, has := w.P.EdgeBound(i, j); has {
				return
			}
			if d, ok := dist[w.Witness[j]]; ok && d > 0 {
				out = append(out, patEdge{i, j, uagpnm.Bound(d)})
			}
		})
	})
	return out
}

// grow adds one pattern node whose witness a bounded walk from an
// existing witness reaches, plus the edge the walk witnessed. It reports
// the updates that do the same to a registered pattern.
func (w *witnessed) grow(rng *rand.Rand, g *uagpnm.Graph) ([]uagpnm.Update, bool) {
	var live []uagpnm.PatternNodeID
	w.P.Nodes(func(u uagpnm.PatternNodeID) { live = append(live, u) })
	used := map[uagpnm.NodeID]bool{}
	for _, u := range live {
		used[w.Witness[u]] = true
	}
	for try := 0; try < 64; try++ {
		anchor := live[rng.Intn(len(live))]
		reverse := rng.Intn(2) == 0
		x, steps, ok := walk(rng, g, w.Witness[anchor], reverse)
		if !ok || used[x] {
			continue
		}
		label := nodeLabel(g, x)
		id := w.P.AddNode(label)
		for len(w.Witness) <= int(id) {
			w.Witness = append(w.Witness, 0)
		}
		w.Witness[id] = x
		from, to := anchor, id
		if reverse {
			from, to = id, anchor
		}
		w.P.AddEdge(from, to, uagpnm.Bound(steps))
		return []uagpnm.Update{
			uagpnm.InsertPatternNode(id, label),
			uagpnm.InsertPatternEdge(from, to, uagpnm.Bound(steps)),
		}, true
	}
	return nil, false
}

// genWitnessed samples a pattern with nodes nodes and edges edges
// (edges ≥ nodes-1) and a held-back toggle edge.
func genWitnessed(rng *rand.Rand, g *uagpnm.Graph, nodes, edges int) *witnessed {
retry:
	for {
		start := uagpnm.NodeID(rng.Intn(g.NumIDs()))
		if !g.Alive(start) {
			continue
		}
		w := &witnessed{P: uagpnm.NewPattern(g)}
		w.P.AddNode(nodeLabel(g, start))
		w.Witness = []uagpnm.NodeID{start}
		for w.P.NumNodes() < nodes {
			if _, ok := w.grow(rng, g); !ok {
				continue retry
			}
		}
		for need := edges + 1 - w.P.NumEdges(); need > 0; need-- {
			extra := witnessedExtraEdges(g, w)
			if len(extra) == 0 {
				continue retry
			}
			e := extra[rng.Intn(len(extra))]
			if need == 1 {
				w.Toggle = e
			} else {
				w.P.AddEdge(e.From, e.To, e.Bound)
			}
		}
		return w
	}
}

// patternDelta generates a witnessed ΔGP of 8 updates, two of each
// kind, against a scratch copy of w: grown nodes arrive with the edge
// that witnesses them, deletions only relax the pattern.
func patternDelta(rng *rand.Rand, g *uagpnm.Graph, w *witnessed) []uagpnm.Update {
	c := &witnessed{P: w.P.Clone(), Witness: append([]uagpnm.NodeID(nil), w.Witness...)}
	var out []uagpnm.Update
	for round := 0; round < 2; round++ {
		if ups, ok := c.grow(rng, g); ok {
			out = append(out, ups...)
		}
		var es []patEdge
		c.P.Edges(func(e pattern.Edge) { es = append(es, patEdge{e.From, e.To, e.B}) })
		e := es[rng.Intn(len(es))]
		c.P.RemoveEdge(e.From, e.To)
		out = append(out, uagpnm.DeletePatternEdge(e.From, e.To))

		var live []uagpnm.PatternNodeID
		c.P.Nodes(func(u uagpnm.PatternNodeID) { live = append(live, u) })
		victim := live[rng.Intn(len(live))]
		c.P.RemoveNode(victim)
		out = append(out, uagpnm.DeletePatternNode(victim))
	}
	return out
}
