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
// A pass over the very pattern it starts from has neither: a published
// pattern is never written again (the hub clones one to apply ΔGP).
func amendDelta(oldP, newP *pattern.Graph) (rebuild, dirtyAll map[pattern.NodeID]bool) {
	if oldP == newP {
		return nil, nil
	}
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

// seedTarget is a pattern node a change-log member of its label can
// seed, with u's maxOut in the new pattern: the deepest a forward row is
// read in a check of u.
type seedTarget struct {
	u      pattern.NodeID
	maxOut int
}

// labelInterest maps each label to the pattern nodes carrying it — the
// filter for which (pattern node, data node) pairs a seed can touch.
func labelInterest(newP *pattern.Graph) map[graph.LabelID][]seedTarget {
	wanted := make(map[graph.LabelID][]seedTarget)
	newP.Nodes(func(u pattern.NodeID) {
		l := newP.Label(u)
		wanted[l] = append(wanted[l], seedTarget{u, newP.MaxOut(u)})
	})
	return wanted
}

// Amend repairs old — a match of oldP computed before a batch of updates
// — into the match of newP over the updated graph g and oracle o, and
// reports how many (pattern node, change-log member) pairs it seeded.
// log must name every data node whose forward shortest-path row d(x,·)
// changed during the batch — the engine's change log, the forward half
// of its affected sets; the targets of moved pairs need not be on it —
// and every data node the batch inserted or deleted, each at a depth
// δ(x) no larger than the old or the new distance of any pair (x,·) that
// moved (shortest.ChangeLog; a log without depths reads δ = 0).
//
// Phase A (amendPlan) works on pairs, not nodes. Only two kinds of pair
// can differ between old and the new maximum M′:
//
//   - a dirty old pair: (u,x) ∈ old whose own forward row changed within
//     u's reach (x is on the log with δ(x) ≤ maxOut(u), the largest
//     bound on u's out-edges — ∞ for "*", 0 for a sink) or whose pattern
//     node's constraints moved (u is restricted or rebuilt) — it may
//     have lost its support and is rechecked;
//   - a newcomer: (u,x) ∉ old that may now match. It is a log member
//     carrying label(u) with δ(x) ≤ maxOut(u), any label candidate of a
//     rebuilt (added or relaxed) u, or — transitively — a label(u) node
//     within the bound b of a pattern edge (u→u′, b) of some newcomer
//     (u′,y): only a newcomer successor can give x support it did not
//     have before.
//
// A newcomer is admitted only if it is label-feasible: for every
// out-edge (u→u′, b) of newP, some node labelled label(u′) — x itself
// at distance 0 included — lies within b of x in the current graph.
// Every pair of M′ passes that check (its supporter through the edge is
// such a node), so a refused pair cannot be in M′; it is not added to
// the images, not expanded from and never drained. C_F names the
// closure so restricted: the seeds, rebuilt candidates and reverse-ball
// nodes that pass the check, expanded from admitted pairs only.
//
// The log's part of that, the (u,x) with x on the log, are the seeded
// pairs. A member deeper than maxOut(u) seeds nothing at u: u checks x
// only against d(x,y) ≤ b on its out-edges, and every pair (x,y) that
// moved has both distances at least δ(x) > b, so x's ball of radius b,
// and with it every check of (u,x), is what it was before the batch.
// Only an inserted or deleted node (δ = 0) seeds a sink.
//
// Old matches are never expanded from: a pair outside old whose forward
// row is unchanged within maxOut(u) and whose pattern node is not
// relaxed had, before the batch, exactly the out-constraints it has now
// and the distances they read, so it can enter M′ only if one of its
// supporters is itself new to M′. Proof sketch: let S be the pairs of M′
// outside old and outside C_F. For (u,x) ∈ S every out-edge of u existed
// in oldP with a bound at least as loose, x's forward row is unchanged
// within maxOut(u), and the supporter M′ gives it is in old, in S, or in
// C_F — the last is impossible: x lies in that edge's reverse ball of
// the supporter's node (the oracle's reverse row, current whoever seeds
// the pass) and, being in M′, passes the check, so it would have been
// admitted. So old ∪ S is a simulation of oldP in the old graph, and
// old's maximality makes S empty: M′ ⊆ (old ∩ alive) ∪ C_F, the
// optimistic sets. Every node the batch deleted is on the log, so
// old ∩ alive is old minus the log's dead members.
//
// Phase B runs the removal fixpoint over the optimistic sets, starting
// from the newcomers, the dirty old pairs and every pair of a
// restricted or rebuilt pattern node; every other old pair still has
// the supporters it had and is rechecked exactly when one of them
// falls.
//
// The result equals Run(newP, g, o). Amend never writes old: the
// result starts with every image of old shared and copies one the
// first time the pass writes it — a newcomer admitted, a dead member
// removed, a pair the fixpoint drops — so it shares with old every
// image the batch left alone, and both stay immutable (see Match).
func Amend(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, log shortest.ChangeLog) (m *Match, seedPairs int) {
	amended, owned, dirty, seedPairs := amendPlan(old, newP, g, o, log)
	w := newWorklist(newP.NumIDs(), g.NumIDs())
	for _, it := range dirty {
		w.push(it.U, it.V)
	}
	amended.drain(w, g, o, owned)
	return amended, seedPairs
}

// AmendN is Amend on a log without depths; workers is ignored. It is
// kept for benchmark/layers.go (ROADMAP 1 (g)).
func AmendN(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, seeds nodeset.Set, workers int) *Match {
	m, _ := Amend(old, newP, g, o, shortest.ChangeLog{Nodes: seeds})
	return m
}

// amendPlan is Phase A of Amend: it closes the newcomer pairs
// under the pattern's in-edges, each at its own bound, and returns the
// optimistic match (old ∩ alive plus newcomers, per pattern node) with
// the mask of the images it owns — every other image is old's, shared —
// the pairs Phase B must recheck first, each listed once, and the
// number of pairs the log seeded.
func amendPlan(old *Match, newP *pattern.Graph, g *graph.Graph, o shortest.Oracle, log shortest.ChangeLog) (*Match, []bool, []Pair, int) {
	rebuild, dirtyAll := amendDelta(old.p, newP)
	n := g.NumIDs()
	amended := &Match{p: newP, sets: make([]*nodeset.Bits, newP.NumIDs())}
	owned := make([]bool, newP.NumIDs())
	newP.Nodes(func(u pattern.NodeID) {
		if set := old.setOrNil(u); set != nil {
			amended.sets[u] = set
		} else {
			amended.sets[u], owned[u] = nodeset.NewBits(n), true
		}
	})
	for _, x := range log.Nodes {
		if g.Alive(x) {
			continue
		}
		for u, set := range amended.sets {
			if set != nil && set.Contains(x) {
				amended.own(pattern.NodeID(u), owned, n).Remove(x)
			}
		}
	}
	var newcomers, dirty []Pair
	probe := newSupportProbe()
	// admit records (u,x) as a newcomer unless it is an old match,
	// already admitted or not label-feasible.
	admit := func(u pattern.NodeID, x uint32) {
		if amended.sets[u].Contains(x) || !labelFeasible(newP, u, x, g, o, probe) {
			return
		}
		amended.own(u, owned, n).Add(x)
		newcomers = append(newcomers, Pair{u, x})
	}
	for u := range rebuild {
		g.LabelBits(newP.Label(u)).Range(func(x uint32) bool {
			admit(u, x)
			return true
		})
	}
	wanted := labelInterest(newP)
	seedPairs := 0
	for i, x := range log.Nodes {
		if !g.Alive(x) {
			continue
		}
		depth := log.DepthAt(i)
		for _, l := range g.NodeLabels(x) {
			for _, t := range wanted[l] {
				if rebuild[t.u] || depth > t.maxOut {
					continue // admitted every candidate above; or moved beyond t.u's reach
				}
				seedPairs++
				if oldSet := old.setOrNil(t.u); oldSet == nil || !oldSet.Contains(x) {
					admit(t.u, x)
				} else if !dirtyAll[t.u] { // a dirtyAll node lists all its pairs below
					dirty = append(dirty, Pair{t.u, x})
				}
			}
		}
	}
	reach := newNewcomerProbe(g, admit)
	for head := 0; head < len(newcomers); head++ {
		y := newcomers[head]
		newP.In(y.U, func(u pattern.NodeID, b pattern.Bound) {
			if !rebuild[u] {
				reach.admitWithin(o, y.V, effectiveBound(b, o), u, newP.Label(u))
			}
		})
	}

	for _, it := range newcomers {
		if !dirtyAll[it.U] {
			dirty = append(dirty, it)
		}
	}
	for u := range dirtyAll {
		if set := amended.setOrNil(u); set != nil {
			set.Range(func(v uint32) bool {
				dirty = append(dirty, Pair{u, v})
				return true
			})
		}
	}
	return amended, owned, dirty, seedPairs
}

// newcomerProbe admits the nodes of a reverse ball that carry a label
// as newcomers of a pattern node — one step of amendPlan's newcomer
// closure. Its callback is bound once per pass, like supportProbe's, not
// once per newcomer and in-edge, and each read is filtered by the
// graph's own bitset of the label.
type newcomerProbe struct {
	g     *graph.Graph
	u     pattern.NodeID
	admit func(x uint32) bool
}

func newNewcomerProbe(g *graph.Graph, admit func(pattern.NodeID, uint32)) *newcomerProbe {
	p := &newcomerProbe{g: g}
	p.admit = func(x uint32) bool {
		admit(p.u, x)
		return true
	}
	return p
}

// admitWithin admits (u, x) for every x labelled l with d(x,y) ≤ k.
func (p *newcomerProbe) admitWithin(o shortest.Oracle, y uint32, k int, u pattern.NodeID, l graph.LabelID) {
	p.u = u
	o.ReverseBallIn(y, k, p.g.LabelBits(l), p.admit)
}

// labelFeasible reports whether x has, for every out-edge (u→u′, b) of
// p, a node labelled label(u′) within b — x itself at distance 0
// included, as in pairSatisfied. Every pair of the maximum simulation
// passes: its supporter through the edge is such a node.
func labelFeasible(p *pattern.Graph, u pattern.NodeID, x uint32, g *graph.Graph, o shortest.Oracle, probe *supportProbe) bool {
	feasible := true
	p.Out(u, func(uNext pattern.NodeID, b pattern.Bound) {
		if feasible && !probe.has(o, x, effectiveBound(b, o), g.LabelBits(p.Label(uNext))) {
			feasible = false
		}
	})
	return feasible
}

func (m *Match) setOrNil(u pattern.NodeID) *nodeset.Bits {
	if int(u) >= len(m.sets) {
		return nil
	}
	return m.sets[u]
}
