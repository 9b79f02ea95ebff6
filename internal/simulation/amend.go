package simulation

import (
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
// cascade's filter for which data nodes can matter at all.
func labelInterest(newP *pattern.Graph) map[graph.LabelID][]pattern.NodeID {
	wanted := make(map[graph.LabelID][]pattern.NodeID)
	newP.Nodes(func(u pattern.NodeID) {
		l := newP.Label(u)
		wanted[l] = append(wanted[l], u)
	})
	return wanted
}

// interesting reports whether data node x carries a label some pattern
// node asks for. A node that does not can neither become a match nor
// support one, so Phase A neither keeps it nor expands from it — seed
// or cascade target alike.
func interesting(g *graph.Graph, wanted map[graph.LabelID][]pattern.NodeID, x uint32) bool {
	for _, l := range g.NodeLabels(x) {
		if len(wanted[l]) > 0 {
			return true
		}
	}
	return false
}

// maxInBound is the widest effective in-bound of any pattern edge — the
// cascade radius of Phase A.
func maxInBound(newP *pattern.Graph, o shortest.Oracle) int {
	maxIn := 0
	newP.Nodes(func(u pattern.NodeID) {
		newP.In(u, func(_ pattern.NodeID, b pattern.Bound) {
			if k := effectiveBound(b, o); k > maxIn {
				maxIn = k
			}
		})
	})
	return maxIn
}

// Amend repairs old — a match of oldP computed before a batch of updates
// — into the match of newP over the updated graph g and oracle o. seeds
// must contain every data node whose shortest-path row or column changed
// during the batch (the union of the engine's affected sets); new data
// nodes count as changed.
//
// The two phases implement DESIGN.md §2.5:
//
//   - Phase A closes the seed set under support cascades (a node within a
//     pattern bound of a potential newcomer may itself become admissible)
//     and builds optimistic candidate sets: old matches plus seeded label
//     candidates, with fully rebuilt sets for relaxed or new pattern
//     nodes.
//   - Phase B runs the removal fixpoint over the optimistic sets,
//     starting from the dirty pairs only; unchanged old pairs are
//     rechecked exactly when one of their supporters falls.
//
// The result equals Run(newP, g, o).
func Amend(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, seeds nodeset.Set) *Match {
	rebuild, dirtyAll := amendDelta(old.p, newP)

	// Phase A: close seeds under support cascades. A node x becomes a
	// potential newcomer when it lies within some in-bound of an existing
	// potential newcomer y and carries a matching label. Newcomers from
	// rebuilt pattern nodes participate too (only those not already
	// matched — established matches cascade nothing new).
	n := g.NumIDs()
	wanted := labelInterest(newP)
	closure := nodeset.NewBits(n)
	frontier := make([]uint32, 0, seeds.Len())
	for _, x := range seeds {
		if g.Alive(x) && interesting(g, wanted, x) && closure.Add(x) {
			frontier = append(frontier, x)
		}
	}
	for u := range rebuild {
		oldSet := old.setOrNil(u)
		for _, v := range g.NodesWithLabel(newP.Label(u)) {
			if (oldSet == nil || !oldSet.Contains(v)) && closure.Add(v) {
				frontier = append(frontier, v)
			}
		}
	}
	maxIn := maxInBound(newP, o)
	for len(frontier) > 0 {
		y := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		if maxIn == 0 {
			continue
		}
		o.ReverseBall(y, maxIn, func(x uint32, _ shortest.Dist) bool {
			if !closure.Contains(x) && interesting(g, wanted, x) && closure.Add(x) {
				frontier = append(frontier, x)
			}
			return true
		})
	}

	// Optimistic candidate sets.
	amended := &Match{p: newP, sets: make([]*nodeset.Bits, newP.NumIDs())}
	newP.Nodes(func(u pattern.NodeID) {
		bits := nodeset.NewBits(n)
		if rebuild[u] {
			for _, v := range g.NodesWithLabel(newP.Label(u)) {
				bits.Add(v)
			}
		} else {
			if oldSet := old.setOrNil(u); oldSet != nil {
				oldSet.Range(func(v uint32) bool {
					if g.Alive(v) {
						bits.Add(v)
					}
					return true
				})
			}
			for _, v := range g.NodesWithLabel(newP.Label(u)) {
				if closure.Contains(v) {
					bits.Add(v)
				}
			}
		}
		amended.sets[u] = bits
	})

	// Phase B: seed the worklist with the dirty pairs.
	w := newWorklist()
	newP.Nodes(func(u pattern.NodeID) {
		set := amended.sets[u]
		if dirtyAll[u] {
			set.Range(func(v uint32) bool {
				w.push(u, v)
				return true
			})
			return
		}
		set.Range(func(v uint32) bool {
			if closure.Contains(v) {
				w.push(u, v)
			}
			return true
		})
	})
	amended.drain(w, g, o)
	return amended
}

func (m *Match) setOrNil(u pattern.NodeID) *nodeset.Bits {
	if int(u) >= len(m.sets) {
		return nil
	}
	return m.sets[u]
}
