// Package graph implements the dynamic directed data graph GD of the
// paper: a directed simple graph whose nodes carry one or more labels
// (fa(u), e.g. job titles) and which supports the four update kinds the
// GPNM problem is defined over — edge insertion/deletion and node
// insertion/deletion — while keeping node identifiers stable.
//
// Identifier stability matters: the SLen matrices, candidate sets and
// affected sets built by the higher layers are all keyed by node id and
// must survive updates. Deleting a node therefore tombstones its id;
// fresh nodes always receive fresh ids.
package graph

import (
	"fmt"
	"sort"

	"uagpnm/internal/nodeset"
)

// NodeID identifies a node. Ids are dense, assigned in insertion order,
// and never reused.
type NodeID = nodeset.ID

// LabelID identifies an interned label string within one Labels table.
type LabelID uint32

// Labels interns label strings to dense LabelIDs so graphs and patterns
// sharing one table can compare labels by integer.
type Labels struct {
	byName map[string]LabelID
	names  []string
}

// NewLabels returns an empty label table.
func NewLabels() *Labels {
	return &Labels{byName: make(map[string]LabelID)}
}

// Intern returns the id for name, assigning a fresh one if unseen.
func (l *Labels) Intern(name string) LabelID {
	if id, ok := l.byName[name]; ok {
		return id
	}
	id := LabelID(len(l.names))
	l.byName[name] = id
	l.names = append(l.names, name)
	return id
}

// Lookup returns the id for name and whether it is interned.
func (l *Labels) Lookup(name string) (LabelID, bool) {
	id, ok := l.byName[name]
	return id, ok
}

// Name returns the string for id. It panics on an out-of-range id, which
// indicates a label-table mix-up (a programming error, not bad input).
func (l *Labels) Name(id LabelID) string { return l.names[id] }

// Count reports how many labels are interned.
func (l *Labels) Count() int { return len(l.names) }

// Graph is a mutable directed simple graph with labelled nodes.
// The zero value is not usable; construct with New.
//
// Graph is not safe for concurrent mutation; concurrent reads are safe.
type Graph struct {
	labels *Labels

	out    [][]NodeID  // sorted successor lists
	in     [][]NodeID  // sorted predecessor lists
	nlab   [][]LabelID // sorted label sets per node (fa)
	alive  []bool
	nAlive int
	nEdges int

	// byLabel indexes alive nodes per label; it backs the label candidate
	// sets of the matcher and the label-based partition. Lists are kept
	// sorted.
	byLabel map[LabelID][]NodeID
}

// New returns an empty graph using the given label table (a fresh table
// is created when labels is nil).
func New(labels *Labels) *Graph {
	if labels == nil {
		labels = NewLabels()
	}
	return &Graph{labels: labels, byLabel: make(map[LabelID][]NodeID)}
}

// Labels exposes the graph's label table.
func (g *Graph) Labels() *Labels { return g.labels }

// NumIDs reports the id space bound: every node id ever assigned is < NumIDs.
// Tombstoned ids count. Matrices indexed by node id size themselves by this.
func (g *Graph) NumIDs() int { return len(g.out) }

// NumNodes reports the number of alive nodes.
func (g *Graph) NumNodes() int { return g.nAlive }

// NumEdges reports the number of edges between alive nodes.
func (g *Graph) NumEdges() int { return g.nEdges }

// Alive reports whether id names a live (non-deleted, in-range) node.
func (g *Graph) Alive(id NodeID) bool {
	return int(id) < len(g.alive) && g.alive[id]
}

// AddNode creates a node carrying the given label names and returns its id.
func (g *Graph) AddNode(labelNames ...string) NodeID {
	ids := make([]LabelID, 0, len(labelNames))
	for _, n := range labelNames {
		ids = append(ids, g.labels.Intern(n))
	}
	return g.AddNodeLabelIDs(ids...)
}

// AddNodeLabelIDs creates a node carrying the given pre-interned labels.
func (g *Graph) AddNodeLabelIDs(labs ...LabelID) NodeID {
	id := NodeID(len(g.out))
	sort.Slice(labs, func(i, j int) bool { return labs[i] < labs[j] })
	labs = dedupLabels(labs)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.nlab = append(g.nlab, labs)
	g.alive = append(g.alive, true)
	g.nAlive++
	for _, l := range labs {
		g.byLabel[l] = insertSorted(g.byLabel[l], id)
	}
	return id
}

func dedupLabels(labs []LabelID) []LabelID {
	if len(labs) < 2 {
		return labs
	}
	w := 1
	for i := 1; i < len(labs); i++ {
		if labs[i] != labs[w-1] {
			labs[w] = labs[i]
			w++
		}
	}
	return labs[:w]
}

// RemoveNode deletes id and all its incident edges. It returns the edges
// that were removed alongside the node (useful for undo and for affected-
// set computation) and false if id was not alive.
func (g *Graph) RemoveNode(id NodeID) (removed []Edge, ok bool) {
	if !g.Alive(id) {
		return nil, false
	}
	for _, v := range append([]NodeID(nil), g.out[id]...) {
		g.RemoveEdge(id, v)
		removed = append(removed, Edge{id, v})
	}
	for _, u := range append([]NodeID(nil), g.in[id]...) {
		g.RemoveEdge(u, id)
		removed = append(removed, Edge{u, id})
	}
	for _, l := range g.nlab[id] {
		g.byLabel[l] = removeSorted(g.byLabel[l], id)
	}
	// The emptied lists keep their backing arrays, and the id is never
	// reused: release them. The labels stay — readers of a deleted node's
	// labels exist.
	g.out[id], g.in[id] = nil, nil
	g.alive[id] = false
	g.nAlive--
	return removed, true
}

// Edge is a directed edge (From → To).
type Edge struct {
	From, To NodeID
}

// String renders the edge as "u->v".
func (e Edge) String() string { return fmt.Sprintf("%d->%d", e.From, e.To) }

// AddEdge inserts the edge u→v. It reports false (and does nothing) when
// the edge already exists, u == v, or either endpoint is dead.
func (g *Graph) AddEdge(u, v NodeID) bool {
	if u == v || !g.Alive(u) || !g.Alive(v) || g.HasEdge(u, v) {
		return false
	}
	g.out[u] = insertSorted(g.out[u], v)
	g.in[v] = insertSorted(g.in[v], u)
	g.nEdges++
	return true
}

// RemoveEdge deletes the edge u→v, reporting whether it existed.
func (g *Graph) RemoveEdge(u, v NodeID) bool {
	if !g.Alive(u) || !g.Alive(v) || !g.HasEdge(u, v) {
		return false
	}
	g.out[u] = removeSorted(g.out[u], v)
	g.in[v] = removeSorted(g.in[v], u)
	g.nEdges--
	return true
}

// HasEdge reports whether the edge u→v exists between alive nodes.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if int(u) >= len(g.out) {
		return false
	}
	return containsSorted(g.out[u], v)
}

// Out returns the successor list of u (sorted; callers must not mutate).
func (g *Graph) Out(u NodeID) []NodeID {
	if int(u) >= len(g.out) {
		return nil
	}
	return g.out[u]
}

// In returns the predecessor list of u (sorted; callers must not mutate).
func (g *Graph) In(u NodeID) []NodeID {
	if int(u) >= len(g.in) {
		return nil
	}
	return g.in[u]
}

// OutDegree reports len(Out(u)); InDegree reports len(In(u)).
func (g *Graph) OutDegree(u NodeID) int { return len(g.Out(u)) }

// InDegree reports the number of predecessors of u.
func (g *Graph) InDegree(u NodeID) int { return len(g.In(u)) }

// NodeLabels returns the sorted label ids of u (callers must not mutate).
func (g *Graph) NodeLabels(u NodeID) []LabelID {
	if int(u) >= len(g.nlab) {
		return nil
	}
	return g.nlab[u]
}

// HasLabel reports whether node u carries label l.
func (g *Graph) HasLabel(u NodeID, l LabelID) bool {
	labs := g.NodeLabels(u)
	i := sort.Search(len(labs), func(i int) bool { return labs[i] >= l })
	return i < len(labs) && labs[i] == l
}

// NodesWithLabel returns the sorted ids of alive nodes carrying l
// (callers must not mutate).
func (g *Graph) NodesWithLabel(l LabelID) []NodeID { return g.byLabel[l] }

// Nodes calls fn for every alive node in ascending id order.
func (g *Graph) Nodes(fn func(NodeID)) {
	for id := range g.alive {
		if g.alive[id] {
			fn(NodeID(id))
		}
	}
}

// Edges calls fn for every edge in ascending (from, to) order.
func (g *Graph) Edges(fn func(Edge)) {
	for u := range g.out {
		if !g.alive[u] {
			continue
		}
		for _, v := range g.out[u] {
			fn(Edge{NodeID(u), v})
		}
	}
}

// Clone returns a deep copy sharing the label table (label tables are
// append-only, so sharing is safe). The id-indexed slices get a quarter
// of headroom, so the first node inserts on the copy — a forked session's
// next batch — append in place instead of regrowing all four.
func (g *Graph) Clone() *Graph {
	n := len(g.out)
	room := n + n/4
	c := &Graph{
		labels:  g.labels,
		out:     make([][]NodeID, n, room),
		in:      make([][]NodeID, n, room),
		nlab:    make([][]LabelID, n, room),
		alive:   append(make([]bool, 0, room), g.alive...),
		nAlive:  g.nAlive,
		nEdges:  g.nEdges,
		byLabel: make(map[LabelID][]NodeID, len(g.byLabel)),
	}
	for i := range g.out {
		c.out[i] = append([]NodeID(nil), g.out[i]...)
		c.in[i] = append([]NodeID(nil), g.in[i]...)
		c.nlab[i] = append([]LabelID(nil), g.nlab[i]...)
	}
	for l, ns := range g.byLabel {
		c.byLabel[l] = append([]NodeID(nil), ns...)
	}
	return c
}

// Stats summarises graph shape for reports and experiment logs.
type Stats struct {
	Nodes, Edges         int
	Labels               int
	MaxOutDeg, MaxInDeg  int
	AvgOutDeg            float64
	NodesWithoutOutEdges int
	NodesWithoutInEdges  int
}

// ComputeStats walks the graph once and summarises it.
func (g *Graph) ComputeStats() Stats {
	s := Stats{Nodes: g.nAlive, Edges: g.nEdges, Labels: g.labels.Count()}
	for id := range g.alive {
		if !g.alive[id] {
			continue
		}
		od, id2 := len(g.out[id]), len(g.in[id])
		if od > s.MaxOutDeg {
			s.MaxOutDeg = od
		}
		if id2 > s.MaxInDeg {
			s.MaxInDeg = id2
		}
		if od == 0 {
			s.NodesWithoutOutEdges++
		}
		if id2 == 0 {
			s.NodesWithoutInEdges++
		}
	}
	if s.Nodes > 0 {
		s.AvgOutDeg = float64(s.Edges) / float64(s.Nodes)
	}
	return s
}

func insertSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSorted(s []NodeID, v NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}

func containsSorted(s []NodeID, v NodeID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	return i < len(s) && s[i] == v
}
