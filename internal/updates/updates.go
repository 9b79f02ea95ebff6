// Package updates models the update streams of the paper: ΔGD (edge and
// node insertions/deletions on the data graph — ΔG±DE, ΔG±DN) and ΔGP
// (the same four kinds on the pattern graph — ΔG±PE, ΔG±PN), together
// with the appliers that mutate the data and pattern graphs and random
// batch generators implementing the experiment protocol of §VII-A. The
// SLen substrate is synchronised by its own engine
// (shortest.DistanceEngine.ApplyDataBatch), which applies ΔGD to the
// graph through ApplyGraph.
package updates

import (
	"fmt"

	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
)

// Kind enumerates the eight update kinds.
type Kind int

// The four data-graph kinds and four pattern-graph kinds.
const (
	DataEdgeInsert Kind = iota
	DataEdgeDelete
	DataNodeInsert
	DataNodeDelete
	PatternEdgeInsert
	PatternEdgeDelete
	PatternNodeInsert
	PatternNodeDelete
)

// String names the kind as the paper does.
func (k Kind) String() string {
	switch k {
	case DataEdgeInsert:
		return "ΔG+DE"
	case DataEdgeDelete:
		return "ΔG-DE"
	case DataNodeInsert:
		return "ΔG+DN"
	case DataNodeDelete:
		return "ΔG-DN"
	case PatternEdgeInsert:
		return "ΔG+PE"
	case PatternEdgeDelete:
		return "ΔG-PE"
	case PatternNodeInsert:
		return "ΔG+PN"
	case PatternNodeDelete:
		return "ΔG-PN"
	}
	return "?"
}

// IsData reports whether the kind touches the data graph.
func (k Kind) IsData() bool { return k <= DataNodeDelete }

// Update is one update UDi or UPi. Fields by kind:
//
//   - *EdgeInsert / *EdgeDelete: From, To (and Bound for PatternEdgeInsert)
//   - DataNodeInsert: Node (the id the node will receive) and Labels
//   - PatternNodeInsert: Node (predicted id) and Labels[0] as the label
//   - *NodeDelete: Node
//
// Node-insert updates pre-assign the id the graph will hand out (ids are
// sequential), so later updates in one batch can reference new nodes and
// batches stay replayable on clones.
type Update struct {
	Kind   Kind
	From   uint32
	To     uint32
	Bound  pattern.Bound
	Node   uint32
	Labels []string
}

// String renders the update compactly, e.g. "ΔG+DE(3->7)".
func (u Update) String() string {
	switch u.Kind {
	case DataEdgeInsert, DataEdgeDelete, PatternEdgeDelete:
		return fmt.Sprintf("%v(%d->%d)", u.Kind, u.From, u.To)
	case PatternEdgeInsert:
		return fmt.Sprintf("%v(%d-(%s)->%d)", u.Kind, u.From, u.Bound, u.To)
	case DataNodeInsert, PatternNodeInsert:
		return fmt.Sprintf("%v(%d %v)", u.Kind, u.Node, u.Labels)
	default:
		return fmt.Sprintf("%v(%d)", u.Kind, u.Node)
	}
}

// Batch is one query's worth of updates: the pattern sequence ΔGP and the
// data sequence ΔGD, each in application order.
type Batch struct {
	P []Update // pattern updates, UPi
	D []Update // data updates, UDi
}

// Size reports the total number of updates |ΔG|.
func (b Batch) Size() int { return len(b.P) + len(b.D) }

// ApplyGraph applies one data update to g and reports whether it
// changed anything (a duplicate edge insert, or a delete of a missing
// edge or node, does not); removed holds the incident edges a node
// delete took with it. It is the one place a data update reaches the
// graph: every SLen engine's ApplyDataBatch calls it, and so does a
// caller that keeps only a graph.
func ApplyGraph(u Update, g *graph.Graph) (removed []graph.Edge, ok bool) {
	switch u.Kind {
	case DataEdgeInsert:
		return nil, g.AddEdge(u.From, u.To)
	case DataEdgeDelete:
		return nil, g.RemoveEdge(u.From, u.To)
	case DataNodeInsert:
		if id := g.AddNode(u.Labels...); id != u.Node {
			panic(fmt.Sprintf("updates: node insert got id %d, batch predicted %d", id, u.Node))
		}
		return nil, true
	case DataNodeDelete:
		return g.RemoveNode(u.Node)
	default:
		panic("updates: ApplyGraph on pattern update " + u.String())
	}
}

// ApplyPattern applies one pattern update to p, reporting whether it
// changed anything.
func ApplyPattern(u Update, p *pattern.Graph) bool {
	switch u.Kind {
	case PatternEdgeInsert:
		return p.AddEdge(u.From, u.To, u.Bound)
	case PatternEdgeDelete:
		_, ok := p.RemoveEdge(u.From, u.To)
		return ok
	case PatternNodeInsert:
		label := ""
		if len(u.Labels) > 0 {
			label = u.Labels[0]
		}
		id := p.AddNode(label)
		if id != u.Node {
			panic(fmt.Sprintf("updates: pattern node insert got id %d, batch predicted %d", id, u.Node))
		}
		return true
	case PatternNodeDelete:
		_, ok := p.RemoveNode(u.Node)
		return ok
	default:
		panic("updates: ApplyPattern on data update " + u.String())
	}
}

// ApplyPatternBatch applies every pattern update in order.
func ApplyPatternBatch(ps []Update, p *pattern.Graph) {
	for _, u := range ps {
		ApplyPattern(u, p)
	}
}

// MaxPatternBound returns the largest finite bound any pattern-edge
// insertion in the batch carries (solvers widen the engine horizon to
// cover it before processing).
func (b Batch) MaxPatternBound() int {
	max := 0
	for _, u := range b.P {
		if u.Kind == PatternEdgeInsert && !u.Bound.IsStar() && int(u.Bound) > max {
			max = int(u.Bound)
		}
	}
	return max
}
