// Package updates models the update streams of the paper: ΔGD (edge and
// node insertions/deletions on the data graph — ΔG±DE, ΔG±DN) and ΔGP
// (the same four kinds on the pattern graph — ΔG±PE, ΔG±PN), together
// with the appliers that mutate the data and pattern graphs and random
// batch generators implementing the experiment protocol of §VII-A. The
// SLen substrate is synchronised by its own engine
// (shortest.DistanceEngine.ApplyData), which applies ΔGD to the
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

// operand is one field of an update's script line and /v1 body.
type operand uint8

const (
	opFrom   operand = iota // edge source
	opTo                    // edge target
	opNode                  // node id (a node insert's predicted id)
	opLabels                // data node insert: one or more labels
	opLabel                 // pattern node insert: exactly one label
	opBound                 // pattern edge insert: a positive hop count or "*"
)

// grammar is the update language, once: per kind, the paper's name,
// the mnemonic of the script and the /v1 JSON, and the operands in
// script order. ParseScript, FormatScript, Raw.Build and Update.Raw
// read it.
var grammar = [...]struct {
	name, op string
	operands []operand
}{
	DataEdgeInsert:    {"ΔG+DE", "+e", []operand{opFrom, opTo}},
	DataEdgeDelete:    {"ΔG-DE", "-e", []operand{opFrom, opTo}},
	DataNodeInsert:    {"ΔG+DN", "+n", []operand{opNode, opLabels}},
	DataNodeDelete:    {"ΔG-DN", "-n", []operand{opNode}},
	PatternEdgeInsert: {"ΔG+PE", "+pe", []operand{opFrom, opTo, opBound}},
	PatternEdgeDelete: {"ΔG-PE", "-pe", []operand{opFrom, opTo}},
	PatternNodeInsert: {"ΔG+PN", "+pn", []operand{opNode, opLabel}},
	PatternNodeDelete: {"ΔG-PN", "-pn", []operand{opNode}},
}

// String names the kind as the paper does.
func (k Kind) String() string {
	if !k.valid() {
		return "?"
	}
	return grammar[k].name
}

func (k Kind) valid() bool { return k >= 0 && int(k) < len(grammar) }

// kindOf returns the kind whose mnemonic is op, or an invalid kind.
func kindOf(op string) Kind {
	for k := range grammar {
		if grammar[k].op == op {
			return Kind(k)
		}
	}
	return -1
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

// Check reports the first update of b that graphs handing out node ids
// from nextData (ΔGD) and nextPattern (ΔGP) cannot take in order: one
// of an unknown kind or on the wrong side, a node insert whose id is
// not the next free one (ids are sequential and never reused), or a
// pattern node insert without exactly one label. The appliers panic
// midway on such a batch, so whoever applies one checks it before
// touching anything.
func (b Batch) Check(nextData, nextPattern uint32) error {
	next := [2]uint32{nextData, nextPattern}
	for side, us := range [2][]Update{b.D, b.P} {
		for _, u := range us {
			if !u.Kind.valid() || u.Kind.IsData() != (side == 0) {
				return fmt.Errorf("%v is on the wrong side of the batch", u)
			}
			if u.Kind == DataNodeInsert || u.Kind == PatternNodeInsert {
				if u.Node != next[side] {
					return fmt.Errorf("%v: the next assignable id is %d", u, next[side])
				}
				next[side]++
			}
			if u.Kind == PatternNodeInsert && len(u.Labels) != 1 {
				return fmt.Errorf("%v carries %d labels, needs exactly one", u, len(u.Labels))
			}
		}
	}
	return nil
}

// ApplyGraph applies one data update to g and reports whether it
// changed anything (a duplicate edge insert, or a delete of a missing
// edge or node, does not); removed holds the incident edges a node
// delete took with it. It is the one place a data update reaches the
// graph: every SLen engine's ApplyData calls it, and so does a
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
		if id := p.AddNode(u.Labels[0]); id != u.Node {
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
