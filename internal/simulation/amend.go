package simulation

import (
	"sync"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
)

// PatternDelta classifies the difference between the pattern a match was
// computed for and the pattern it must be amended to. Pattern node ids
// are stable across updates, so the diff is positional.
type PatternDelta struct {
	AddedNodes   []pattern.NodeID
	RemovedNodes []pattern.NodeID
	// Relaxed lists pattern nodes whose constraints weakened (an out-edge
	// removed or its bound increased): data nodes previously excluded may
	// now match, so the node needs a full candidate rebuild.
	Relaxed []pattern.NodeID
	// Restricted lists pattern nodes whose constraints tightened (an
	// out-edge added or its bound decreased): current matches need
	// rechecking, but no new node can appear on this account.
	Restricted []pattern.NodeID
}

// DiffPatterns computes the delta from oldP to newP.
func DiffPatterns(oldP, newP *pattern.Graph) PatternDelta {
	var d PatternDelta
	maxIDs := oldP.NumIDs()
	if newP.NumIDs() > maxIDs {
		maxIDs = newP.NumIDs()
	}
	for id := 0; id < maxIDs; id++ {
		u := pattern.NodeID(id)
		switch {
		case !oldP.Alive(u) && newP.Alive(u):
			d.AddedNodes = append(d.AddedNodes, u)
		case oldP.Alive(u) && !newP.Alive(u):
			d.RemovedNodes = append(d.RemovedNodes, u)
		}
	}
	relaxed := map[pattern.NodeID]bool{}
	restricted := map[pattern.NodeID]bool{}
	oldP.Edges(func(e pattern.Edge) {
		if !newP.Alive(e.From) {
			return // the whole source died; nothing to amend for it
		}
		nb, ok := newP.EdgeBound(e.From, e.To)
		switch {
		case !ok || !newP.Alive(e.To):
			relaxed[e.From] = true // out-edge gone
		case nb != e.B:
			if boundLooser(nb, e.B) {
				relaxed[e.From] = true
			} else {
				restricted[e.From] = true
			}
		}
	})
	newP.Edges(func(e pattern.Edge) {
		if !oldP.Alive(e.From) {
			return // new node: handled via AddedNodes
		}
		if _, ok := oldP.EdgeBound(e.From, e.To); !ok || !oldP.Alive(e.To) {
			restricted[e.From] = true // out-edge appeared
		}
	})
	for u := range relaxed {
		d.Relaxed = append(d.Relaxed, u)
	}
	for u := range restricted {
		d.Restricted = append(d.Restricted, u)
	}
	return d
}

// boundLooser reports whether bound a admits more pairs than bound b.
func boundLooser(a, b pattern.Bound) bool {
	if a.IsStar() {
		return !b.IsStar()
	}
	if b.IsStar() {
		return false
	}
	return a > b
}

// amendDelta classifies the pattern diff into the node sets Amend's
// phases consume: rebuild (added or relaxed — full candidate rebuild)
// and dirtyAll (rebuild plus restricted — every candidate re-enqueued).
func amendDelta(oldP, newP *pattern.Graph) (rebuild, dirtyAll map[pattern.NodeID]bool) {
	delta := DiffPatterns(oldP, newP)
	rebuild = make(map[pattern.NodeID]bool)
	for _, u := range delta.AddedNodes {
		rebuild[u] = true
	}
	for _, u := range delta.Relaxed {
		rebuild[u] = true
	}
	dirtyAll = make(map[pattern.NodeID]bool, len(rebuild))
	for u := range rebuild {
		dirtyAll[u] = true
	}
	for _, u := range delta.Restricted {
		dirtyAll[u] = true
	}
	return rebuild, dirtyAll
}

// labelInterest maps each label to the pattern nodes carrying it — the
// filter for which (pattern node, data node) pairs a seed can touch.
func labelInterest(newP *pattern.Graph) map[graph.LabelID][]pattern.NodeID {
	wanted := make(map[graph.LabelID][]pattern.NodeID)
	newP.Nodes(func(u pattern.NodeID) {
		l := newP.Label(u)
		wanted[l] = append(wanted[l], u)
	})
	return wanted
}

// Amend repairs old — a match of oldP computed before a batch of updates
// — into the match of newP over the updated graph g and oracle o. seeds
// must contain every data node whose forward shortest-path row d(x,·)
// changed during the batch — the engine's change log, the forward half
// of its affected sets; the targets of moved pairs need not be seeds —
// and every data node the batch inserted or deleted.
//
// Phase A (amendPlan) works on pairs, not nodes. Only two kinds of pair
// can differ between old and the new maximum M′:
//
//   - a dirty old pair: (u,x) ∈ old whose own forward row changed (x is
//     a seed) or whose pattern node's constraints moved (u is restricted
//     or rebuilt) — it may have lost its support and is rechecked;
//   - a newcomer: (u,x) ∉ old that may now match. It is a seed carrying
//     label(u), any label candidate of a rebuilt (added or relaxed) u,
//     or — transitively — a label(u) node within the bound b of a
//     pattern edge (u→u′, b) of some newcomer (u′,y): only a newcomer
//     successor can give x support it did not have before.
//
// Old matches are never expanded from: a pair outside old whose forward
// row is unchanged and whose pattern node is not relaxed had, before the
// batch, exactly the out-constraints and distances it has now, so it
// can enter M′ only if one of its supporters is itself new to M′.
// Proof sketch: let S be the pairs of M′ outside old and outside the
// newcomer closure. For (u,x) ∈ S every out-edge of u existed in oldP
// with a bound at least as loose, x's forward row is unchanged, and the
// supporter M′ gives it is in old, in S, or a newcomer — the last is
// impossible, since x would then have been admitted through that
// edge's reverse ball (the oracle's reverse row of the newcomer's node,
// current whoever seeds the pass). So old ∪ S is a simulation of oldP in the old
// graph, and old's maximality makes S empty: M′ ⊆ (old ∩ alive) ∪
// newcomers, the optimistic sets.
//
// Phase B runs the removal fixpoint over the optimistic sets, starting
// from the newcomers, the dirty old pairs and every pair of a
// restricted or rebuilt pattern node; every other old pair still has
// the supporters it had and is rechecked exactly when one of them
// falls.
//
// The result equals Run(newP, g, o).
func Amend(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, seeds nodeset.Set) *Match {
	amended, dirty := amendPlan(old, newP, g, o, seeds)
	w := newWorklist(newP.NumIDs(), g.NumIDs())
	for _, it := range dirty {
		w.push(it.u, it.v)
	}
	amended.drain(w, g, o)
	return amended
}

// AmendN is Amend; workers is ignored. It is kept for benchmark/layers.go
// (ROADMAP 1 (g)).
func AmendN(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, seeds nodeset.Set, workers int) *Match {
	return Amend(old, newP, g, o, seeds)
}

// amendPlan is Phase A of Amend: it closes the newcomer pairs
// under the pattern's in-edges, each at its own bound, and returns the
// optimistic match (old ∩ alive plus newcomers, per pattern node) with
// the pairs Phase B must recheck first, each listed once.
func amendPlan(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, seeds nodeset.Set) (*Match, []pairItem) {
	rebuild, dirtyAll := amendDelta(old.p, newP)
	n := g.NumIDs()
	fresh := make([]*nodeset.Bits, newP.NumIDs())
	var newcomers, dirty []pairItem
	// admit records (u,x) as a newcomer unless it is an old match or
	// already admitted.
	admit := func(u pattern.NodeID, x uint32) {
		if oldSet := old.setOrNil(u); oldSet != nil && oldSet.Contains(x) {
			return
		}
		if fresh[u] == nil {
			fresh[u] = nodeset.NewBits(n)
		}
		if fresh[u].Add(x) {
			newcomers = append(newcomers, pairItem{u, x})
		}
	}
	for u := range rebuild {
		for _, x := range g.NodesWithLabel(newP.Label(u)) {
			admit(u, x)
		}
	}
	wanted := labelInterest(newP)
	for _, x := range seeds {
		if !g.Alive(x) {
			continue
		}
		for _, l := range g.NodeLabels(x) {
			for _, u := range wanted[l] {
				if rebuild[u] {
					continue // admitted every candidate above
				}
				if oldSet := old.setOrNil(u); oldSet == nil || !oldSet.Contains(x) {
					admit(u, x)
				} else if !dirtyAll[u] { // a dirtyAll node lists all its pairs below
					dirty = append(dirty, pairItem{u, x})
				}
			}
		}
	}
	reach := newNewcomerProbe(g, admit)
	for head := 0; head < len(newcomers); head++ {
		y := newcomers[head]
		newP.In(y.u, func(u pattern.NodeID, b pattern.Bound) {
			if !rebuild[u] {
				reach.admitWithin(o, y.v, effectiveBound(b, o), u, newP.Label(u))
			}
		})
	}
	reach.release()

	amended := &Match{p: newP, sets: make([]*nodeset.Bits, newP.NumIDs())}
	newP.Nodes(func(u pattern.NodeID) {
		bits := fresh[u]
		if bits == nil {
			bits = nodeset.NewBits(n)
		}
		if oldSet := old.setOrNil(u); oldSet != nil {
			oldSet.Range(func(v uint32) bool {
				if g.Alive(v) {
					bits.Add(v)
				}
				return true
			})
		}
		amended.sets[u] = bits
	})
	for _, it := range newcomers {
		if !dirtyAll[it.u] {
			dirty = append(dirty, it)
		}
	}
	for u := range dirtyAll {
		if set := amended.setOrNil(u); set != nil {
			set.Range(func(v uint32) bool {
				dirty = append(dirty, pairItem{u, v})
				return true
			})
		}
	}
	return amended, dirty
}

// newcomerProbe admits the nodes of a reverse ball that carry a label
// as newcomers of a pattern node — one step of amendPlan's newcomer
// closure. Its callback is bound once per pass, like supportProbe's, not
// once per newcomer and in-edge, and each read is filtered by the
// label's nodes as a bitset, built once per pass for each label the
// closure touches.
type newcomerProbe struct {
	g     *graph.Graph
	u     pattern.NodeID
	admit func(x uint32) bool
	sets  []labelSet
	buf   [4]labelSet // backs sets for the few labels a pattern has
}

// labelSet is the nodes of one label as a bitset.
type labelSet struct {
	l    graph.LabelID
	bits *nodeset.Bits
}

// labelBits recycles the label bitsets across passes; a bitset is
// cleared before it goes back.
var labelBits = sync.Pool{New: func() any { return nodeset.NewBits(0) }}

func newNewcomerProbe(g *graph.Graph, admit func(pattern.NodeID, uint32)) *newcomerProbe {
	p := &newcomerProbe{g: g}
	p.sets = p.buf[:0]
	p.admit = func(x uint32) bool {
		admit(p.u, x)
		return true
	}
	return p
}

// admitWithin admits (u, x) for every x labelled l with d(x,y) ≤ k.
func (p *newcomerProbe) admitWithin(o shortest.Oracle, y uint32, k int, u pattern.NodeID, l graph.LabelID) {
	p.u = u
	o.ReverseBallIn(y, k, p.labelled(l), p.admit)
}

// labelled returns the bitset of the nodes labelled l. A pooled bitset
// too small for the graph's ids is replaced by one sized for them, so a
// fill never regrows it word by word.
func (p *newcomerProbe) labelled(l graph.LabelID) *nodeset.Bits {
	for _, s := range p.sets {
		if s.l == l {
			return s.bits
		}
	}
	bits := labelBits.Get().(*nodeset.Bits)
	if bits.Capacity() < p.g.NumIDs() {
		bits = nodeset.NewBits(p.g.NumIDs())
	}
	for _, x := range p.g.NodesWithLabel(l) {
		bits.Add(x)
	}
	p.sets = append(p.sets, labelSet{l, bits})
	return bits
}

// release clears the pass's label bitsets and returns them to the pool.
func (p *newcomerProbe) release() {
	for _, s := range p.sets {
		s.bits.Clear()
		labelBits.Put(s.bits)
	}
	p.sets = p.sets[:0]
}

func (m *Match) setOrNil(u pattern.NodeID) *nodeset.Bits {
	if int(u) >= len(m.sets) {
		return nil
	}
	return m.sets[u]
}
