// Package pattern implements the pattern graph GP of the paper: a small
// directed graph whose nodes carry a single label fv(u) (e.g. a job
// title) and whose edges carry a bounded path length fe(u,u') — either a
// positive integer k, constraining matches to pairs within k hops in the
// data graph, or the symbol "*", meaning any finite path length
// (reachability).
//
// Pattern graphs are updated by the same four operations as data graphs
// (edge/node × insert/delete); like the data graph, node ids stay stable
// under deletion so that update logs and candidate sets remain valid.
package pattern

import (
	"fmt"
	"math"
	"sort"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
)

// NodeID identifies a pattern node. Pattern graphs are small (the paper
// uses 6–10 nodes), but ids share the uint32 width of data-graph ids for
// uniformity.
type NodeID = nodeset.ID

// Bound is the bounded path length on a pattern edge: a positive hop
// count, or Star for "*" (no length constraint beyond reachability).
type Bound int32

// Star is the "*" bound: any finite path length matches.
const Star Bound = -1

// IsStar reports whether b is the "*" bound.
func (b Bound) IsStar() bool { return b < 0 }

// Valid reports whether b is Star or a positive hop count.
func (b Bound) Valid() bool { return b == Star || b >= 1 }

// String renders the bound as the paper writes it: "3" or "*".
func (b Bound) String() string {
	if b.IsStar() {
		return "*"
	}
	return fmt.Sprintf("%d", int32(b))
}

// Edge is a directed pattern edge with its bound.
type Edge struct {
	From, To NodeID
	B        Bound
}

// String renders the edge as "u-(3)->v".
func (e Edge) String() string { return fmt.Sprintf("%d-(%s)->%d", e.From, e.B, e.To) }

type halfEdge struct {
	to NodeID
	b  Bound
}

// Graph is a mutable pattern graph. Construct with New; the zero value is
// unusable. Not safe for concurrent mutation.
type Graph struct {
	labels *graph.Labels
	names  []string        // display name per node (defaults to label name)
	label  []graph.LabelID // fv(u)
	alive  []bool
	out    [][]halfEdge // sorted by target id
	in     [][]halfEdge
	nAlive int
	nEdges int
}

// New returns an empty pattern graph over the given label table (shared
// with the data graph so label ids align; a fresh table is created when
// labels is nil).
func New(labels *graph.Labels) *Graph {
	if labels == nil {
		labels = graph.NewLabels()
	}
	return &Graph{labels: labels}
}

// Labels exposes the pattern's label table.
func (p *Graph) Labels() *graph.Labels { return p.labels }

// NumIDs reports the id-space bound (tombstones included).
func (p *Graph) NumIDs() int { return len(p.label) }

// NumNodes reports the number of alive pattern nodes.
func (p *Graph) NumNodes() int { return p.nAlive }

// NumEdges reports the number of pattern edges.
func (p *Graph) NumEdges() int { return p.nEdges }

// Alive reports whether id names a live pattern node.
func (p *Graph) Alive(id NodeID) bool {
	return int(id) < len(p.alive) && p.alive[id]
}

// AddNode creates a pattern node labelled labelName and returns its id.
// The display name defaults to the label name; see AddNamedNode.
func (p *Graph) AddNode(labelName string) NodeID {
	return p.AddNamedNode(labelName, labelName)
}

// AddNamedNode creates a pattern node with an explicit display name
// (useful when two pattern nodes share one label, e.g. two SE roles).
func (p *Graph) AddNamedNode(name, labelName string) NodeID {
	id := NodeID(len(p.label))
	p.label = append(p.label, p.labels.Intern(labelName))
	p.names = append(p.names, name)
	p.alive = append(p.alive, true)
	p.out = append(p.out, nil)
	p.in = append(p.in, nil)
	p.nAlive++
	return id
}

// RemoveNode deletes id with its incident edges, returning those edges.
func (p *Graph) RemoveNode(id NodeID) (removed []Edge, ok bool) {
	if !p.Alive(id) {
		return nil, false
	}
	for _, he := range append([]halfEdge(nil), p.out[id]...) {
		p.RemoveEdge(id, he.to)
		removed = append(removed, Edge{id, he.to, he.b})
	}
	for _, he := range append([]halfEdge(nil), p.in[id]...) {
		b, _ := p.EdgeBound(he.to, id)
		p.RemoveEdge(he.to, id)
		removed = append(removed, Edge{he.to, id, b})
	}
	p.alive[id] = false
	p.nAlive--
	return removed, true
}

// AddEdge inserts u-(b)->v. It reports false when the edge exists, the
// bound is invalid, u == v, or either endpoint is dead.
func (p *Graph) AddEdge(u, v NodeID, b Bound) bool {
	if u == v || !b.Valid() || !p.Alive(u) || !p.Alive(v) {
		return false
	}
	if _, dup := p.EdgeBound(u, v); dup {
		return false
	}
	p.out[u] = insertHalf(p.out[u], halfEdge{v, b})
	p.in[v] = insertHalf(p.in[v], halfEdge{u, b})
	p.nEdges++
	return true
}

// RemoveEdge deletes u->v, returning its bound and whether it existed.
func (p *Graph) RemoveEdge(u, v NodeID) (Bound, bool) {
	b, ok := p.EdgeBound(u, v)
	if !ok {
		return 0, false
	}
	p.out[u] = removeHalf(p.out[u], v)
	p.in[v] = removeHalf(p.in[v], u)
	p.nEdges--
	return b, true
}

// EdgeBound returns the bound of edge u->v and whether the edge exists.
func (p *Graph) EdgeBound(u, v NodeID) (Bound, bool) {
	if int(u) >= len(p.out) {
		return 0, false
	}
	hs := p.out[u]
	i := sort.Search(len(hs), func(i int) bool { return hs[i].to >= v })
	if i < len(hs) && hs[i].to == v {
		return hs[i].b, true
	}
	return 0, false
}

// Label returns fv(id).
func (p *Graph) Label(id NodeID) graph.LabelID { return p.label[id] }

// Name returns the display name of id.
func (p *Graph) Name(id NodeID) string { return p.names[id] }

// LabelName returns the label string of id.
func (p *Graph) LabelName(id NodeID) string { return p.labels.Name(p.label[id]) }

// Out calls fn for each out-edge of u in ascending target order.
func (p *Graph) Out(u NodeID, fn func(v NodeID, b Bound)) {
	if int(u) >= len(p.out) {
		return
	}
	for _, he := range p.out[u] {
		fn(he.to, he.b)
	}
}

// In calls fn for each in-edge of u in ascending source order.
func (p *Graph) In(u NodeID, fn func(v NodeID, b Bound)) {
	if int(u) >= len(p.in) {
		return
	}
	for _, he := range p.in[u] {
		fn(he.to, he.b)
	}
}

// OutDegree reports the number of out-edges of u.
func (p *Graph) OutDegree(u NodeID) int {
	if int(u) >= len(p.out) {
		return 0
	}
	return len(p.out[u])
}

// MaxOut is the largest bound on u's out-edges: how far a data node's
// forward row reaches into a check of u. It is Unbounded when an
// out-edge is "*" and 0 for a sink.
func (p *Graph) MaxOut(u NodeID) int {
	m := 0
	p.Out(u, func(_ NodeID, b Bound) {
		if b.IsStar() {
			m = Unbounded
		} else {
			m = max(m, int(b))
		}
	})
	return m
}

// Unbounded is MaxOut's "*": larger than any hop count.
const Unbounded = math.MaxInt

// Nodes calls fn for every alive pattern node in ascending id order.
func (p *Graph) Nodes(fn func(NodeID)) {
	for id := range p.alive {
		if p.alive[id] {
			fn(NodeID(id))
		}
	}
}

// Edges calls fn for every pattern edge in ascending (from, to) order.
func (p *Graph) Edges(fn func(Edge)) {
	for u := range p.out {
		if !p.alive[u] {
			continue
		}
		for _, he := range p.out[u] {
			fn(Edge{NodeID(u), he.to, he.b})
		}
	}
}

// MaxFiniteBound returns the largest integer bound on any edge (0 when
// there are none). The SLen engines cap their hop horizon at this value.
func (p *Graph) MaxFiniteBound() int {
	max := 0
	p.Edges(func(e Edge) {
		if !e.B.IsStar() && int(e.B) > max {
			max = int(e.B)
		}
	})
	return max
}

// HasStar reports whether any edge carries the "*" bound.
func (p *Graph) HasStar() bool {
	star := false
	p.Edges(func(e Edge) { star = star || e.B.IsStar() })
	return star
}

// Clone returns a deep copy sharing the label table.
func (p *Graph) Clone() *Graph {
	c := &Graph{
		labels: p.labels,
		names:  append([]string(nil), p.names...),
		label:  append([]graph.LabelID(nil), p.label...),
		alive:  append([]bool(nil), p.alive...),
		out:    make([][]halfEdge, len(p.out)),
		in:     make([][]halfEdge, len(p.in)),
		nAlive: p.nAlive,
		nEdges: p.nEdges,
	}
	for i := range p.out {
		c.out[i] = append([]halfEdge(nil), p.out[i]...)
		c.in[i] = append([]halfEdge(nil), p.in[i]...)
	}
	return c
}

// Validate checks structural sanity: bounds valid, adjacency mirrored,
// and no edges touching dead nodes. It returns the first problem found.
func (p *Graph) Validate() error {
	for u := range p.out {
		if !p.alive[u] {
			if len(p.out[u]) != 0 || len(p.in[u]) != 0 {
				return fmt.Errorf("pattern: dead node %d has edges", u)
			}
			continue
		}
		for _, he := range p.out[u] {
			if !he.b.Valid() {
				return fmt.Errorf("pattern: edge %d->%d has invalid bound %d", u, he.to, he.b)
			}
			if !p.Alive(he.to) {
				return fmt.Errorf("pattern: edge %d->%d targets dead node", u, he.to)
			}
			if b, ok := p.EdgeBound(NodeID(u), he.to); !ok || b != he.b {
				return fmt.Errorf("pattern: edge %d->%d not mirrored", u, he.to)
			}
		}
	}
	return nil
}

func insertHalf(hs []halfEdge, he halfEdge) []halfEdge {
	i := sort.Search(len(hs), func(i int) bool { return hs[i].to >= he.to })
	hs = append(hs, halfEdge{})
	copy(hs[i+1:], hs[i:])
	hs[i] = he
	return hs
}

func removeHalf(hs []halfEdge, to NodeID) []halfEdge {
	i := sort.Search(len(hs), func(i int) bool { return hs[i].to >= to })
	if i < len(hs) && hs[i].to == to {
		return append(hs[:i], hs[i+1:]...)
	}
	return hs
}
