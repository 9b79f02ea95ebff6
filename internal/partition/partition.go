// Package partition implements §V of the paper: the label-based graph
// partition and the partition-based shortest-path-length computation
// that UA-GPNM uses in place of a single global SLen matrix.
//
// Nodes sharing a (primary) label form one partition — the paper's
// observation, after Brandes et al., is that same-role nodes connect
// densely, so most edges are intra-partition. Each partition has its
// own induced subgraph with a private SLen engine (intra-partition
// distances), both held by the shard that owns it, and the partitions
// are glued by a weighted overlay graph over the bridge nodes:
//
//   - inner bridge node of Pi (Def. 1): a node of Pi with an out-edge
//     leaving Pi ("exit");
//   - outer bridge node of Pi (Def. 2): a node outside Pi targeted by an
//     edge from Pi — equivalently, a node with an in-edge from another
//     partition ("entry" of its own partition).
//
// Cross-partition distances are answered by stitching: intra distance to
// an exit, overlay distance between bridge nodes, intra distance from an
// entry (see sectionv.go). Unlike the paper's literal Algorithms 4–5,
// which stitch a single bridge hop, the overlay formulation is exact —
// the argument is in sectionV's doc comment.
//
// All of that is sectionV, one of the two substrates an Engine has: the
// shape of a sharded deployment, whose workers hold the partitions. An
// engine without a fleet is the ball plane — bounded BFS rows over the
// data graph and none of the structures above — because bounded balls
// are all the matcher reads (ballPlane).
package partition

import (
	"sort"

	"uagpnm/internal/graph"
)

// none marks "no partition" for dead or unseen node ids.
const none = int32(-1)

// part is one label-based partition: its members in local-id order.
// Its induced subgraph and private SLen engine live behind the shard
// seam (internal/shard), with the shard that owns it; the coordinator
// reads the subgraph off the data graph when a shard builds it
// (engineSource).
type part struct {
	label   graph.LabelID
	globals []uint32 // local id → global id (tombstones preserved)

	// exits and entries hold the partition's bridge nodes by global id,
	// sorted (exits = inner bridge nodes, entries = targets of inbound
	// cross edges).
	exits   []uint32
	entries []uint32
}

// Partitioning maintains the label partition of a data graph and the
// bridge-node bookkeeping.
type Partitioning struct {
	g *graph.Graph

	partOf  []int32  // global id → part index (none when dead)
	localOf []uint32 // global id → local id within its part
	parts   []*part
	byLabel map[graph.LabelID]int32

	// crossOut/crossIn count cross-partition out-/in-edges per global id;
	// a node is an exit iff crossOut > 0 and an entry iff crossIn > 0.
	crossOut []int32
	crossIn  []int32
}

// newPartitioning builds the partition structure for g (the intra
// engines are the shards' to build; the Engine drives that).
func newPartitioning(g *graph.Graph) *Partitioning {
	p := &Partitioning{g: g, byLabel: make(map[graph.LabelID]int32)}
	n := g.NumIDs()
	p.partOf = make([]int32, n)
	p.localOf = make([]uint32, n)
	p.crossOut = make([]int32, n)
	p.crossIn = make([]int32, n)
	for i := range p.partOf {
		p.partOf[i] = none
	}
	g.Nodes(func(id uint32) { p.addToPart(id) })
	g.Edges(func(e graph.Edge) {
		if p.partOf[e.From] != p.partOf[e.To] {
			p.noteCross(e.From, e.To, +1)
		}
	})
	return p
}

// primaryLabel picks the partition label of a node: its smallest label id
// (data-graph nodes in the paper carry a single job-title label, so this
// is simply that label).
func (p *Partitioning) primaryLabel(id uint32) graph.LabelID {
	labs := p.g.NodeLabels(id)
	if len(labs) == 0 {
		return 0
	}
	return labs[0]
}

// addToPart registers global node id in its label's partition, creating
// the partition if needed, and returns the part index.
func (p *Partitioning) addToPart(id uint32) int32 {
	lab := p.primaryLabel(id)
	pi, ok := p.byLabel[lab]
	if !ok {
		pi = int32(len(p.parts))
		p.byLabel[lab] = pi
		p.parts = append(p.parts, &part{label: lab})
	}
	pt := p.parts[pi]
	local := uint32(len(pt.globals))
	pt.globals = append(pt.globals, id)
	p.growTo(int(id) + 1)
	p.partOf[id] = pi
	p.localOf[id] = local
	return pi
}

func (p *Partitioning) growTo(n int) {
	for len(p.partOf) < n {
		p.partOf = append(p.partOf, none)
		p.localOf = append(p.localOf, 0)
		p.crossOut = append(p.crossOut, 0)
		p.crossIn = append(p.crossIn, 0)
	}
}

// noteCross adjusts the cross-edge counters for edge (u,v) by delta
// (+1 insert, -1 delete) and keeps the exit/entry lists in sync.
func (p *Partitioning) noteCross(u, v uint32, delta int32) {
	wasExit, wasEntry := p.crossOut[u] > 0, p.crossIn[v] > 0
	p.crossOut[u] += delta
	p.crossIn[v] += delta
	if isExit := p.crossOut[u] > 0; isExit != wasExit {
		pt := p.parts[p.partOf[u]]
		if isExit {
			pt.exits = insertSortedU32(pt.exits, u)
		} else {
			pt.exits = removeSortedU32(pt.exits, u)
		}
	}
	if isEntry := p.crossIn[v] > 0; isEntry != wasEntry {
		pt := p.parts[p.partOf[v]]
		if isEntry {
			pt.entries = insertSortedU32(pt.entries, v)
		} else {
			pt.entries = removeSortedU32(pt.entries, v)
		}
	}
}

// isExit reports whether id is an inner bridge node of its partition.
func (p *Partitioning) isExit(id uint32) bool {
	return int(id) < len(p.crossOut) && p.crossOut[id] > 0
}

// isEntry reports whether id receives a cross-partition edge.
func (p *Partitioning) isEntry(id uint32) bool {
	return int(id) < len(p.crossIn) && p.crossIn[id] > 0
}

// isOverlay reports whether id participates in the overlay graph.
func (p *Partitioning) isOverlay(id uint32) bool {
	return p.isExit(id) || p.isEntry(id)
}

// partIndex returns the part index of a global id (none when dead).
func (p *Partitioning) partIndex(id uint32) int32 {
	if int(id) >= len(p.partOf) {
		return none
	}
	return p.partOf[id]
}

// InnerBridgeNodes returns IB(P) for the partition labelled lab, by
// global id (paper Def. 1). It returns nil for unknown labels.
func (p *Partitioning) InnerBridgeNodes(lab graph.LabelID) []uint32 {
	pi, ok := p.byLabel[lab]
	if !ok {
		return nil
	}
	return append([]uint32(nil), p.parts[pi].exits...)
}

// OuterBridgeNodes returns OB(P) for the partition labelled lab (paper
// Def. 2): the targets of cross edges leaving the partition, by global id.
func (p *Partitioning) OuterBridgeNodes(lab graph.LabelID) []uint32 {
	pi, ok := p.byLabel[lab]
	if !ok {
		return nil
	}
	var out []uint32
	seen := map[uint32]bool{}
	for _, gid := range p.parts[pi].globals {
		for _, v := range p.g.Out(gid) {
			if p.partOf[v] != pi && !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func insertSortedU32(s []uint32, v uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return s
	}
	s = append(s, 0)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func removeSortedU32(s []uint32, v uint32) []uint32 {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= v })
	if i < len(s) && s[i] == v {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
