// Package simulation implements Bounded Graph Simulation matching — the
// GPNM semantics of the paper (§III): the maximum relation M ⊆ VP×VD in
// which every matched data node carries its pattern node's label and has,
// for each pattern edge (u,u') with bound k, a matched successor within k
// hops ("*" = any finite length). The GPNM result Npi is M's image per
// pattern node; BGS requires every pattern node matched, so if any image
// is empty the reported result is empty everywhere.
//
// Two entry points exist: Run computes M by fixpoint from scratch, and
// Amend repairs an existing M after a batch of pattern/data updates,
// given the set of data nodes whose shortest-path rows changed. Amend is
// the engine room of every incremental solver (INC-, EH- and UA-GPNM);
// its contract — Amend(…) equals Run(…) on the updated graphs — is
// enforced by differential tests.
package simulation

import (
	"slices"
	"sync"

	"uagpnm/internal/graph"
	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
)

// Match is the maximum bounded simulation of a pattern in a data graph.
// A Match that Run, Amend or MatchFromSets returned is immutable: nothing
// writes it again. Amend relies on that — the match it returns shares
// with the one it started from every image the batch left alone — so a
// caller that wants a copy to change takes Clone.
type Match struct {
	p    *pattern.Graph
	sets []*nodeset.Bits // indexed by pattern node id; nil for dead ids
}

// Pair is one (pattern node, data node) pair of a match.
type Pair struct {
	U pattern.NodeID
	V uint32
}

// Pattern returns the pattern this match was computed for.
func (m *Match) Pattern() *pattern.Graph { return m.p }

// SimulationSet returns the raw simulation image of pattern node u (the
// maximal relation's column), without the all-nonempty BGS projection.
func (m *Match) SimulationSet(u pattern.NodeID) nodeset.Set {
	if int(u) >= len(m.sets) || m.sets[u] == nil {
		return nil
	}
	return m.sets[u].Set()
}

// Total reports whether every alive pattern node has at least one match —
// the BGS condition for GP ⪯ GD.
func (m *Match) Total() bool {
	total := true
	m.p.Nodes(func(u pattern.NodeID) {
		if m.sets[u] == nil || m.sets[u].Empty() {
			total = false
		}
	})
	return total
}

// Nodes returns the GPNM result Npi for pattern node u: the simulation
// image when the match is total, ∅ otherwise (paper §III-B).
func (m *Match) Nodes(u pattern.NodeID) nodeset.Set {
	if !m.Total() {
		return nil
	}
	return m.SimulationSet(u)
}

// Equal reports whether two matches assign identical simulation sets to
// every alive pattern node (patterns must agree structurally).
func (m *Match) Equal(o *Match) bool {
	equal := true
	m.p.Nodes(func(u pattern.NodeID) {
		a, b := m.SimulationSet(u), o.SimulationSet(u)
		if !a.Equal(b) {
			equal = false
		}
	})
	return equal
}

// MatchFromSets reconstructs a match over p from raw per-node
// simulation images (SimulationSet values, pre-BGS projection) — the
// wire-decoding path of the remote client (internal/api). sets is
// consulted once per alive pattern node; the returned match owns
// private bitsets, so the slices handed back by sets are not retained.
func MatchFromSets(p *pattern.Graph, sets func(u pattern.NodeID) nodeset.Set) *Match {
	m := &Match{p: p, sets: make([]*nodeset.Bits, p.NumIDs())}
	p.Nodes(func(u pattern.NodeID) {
		s, capacity := sets(u), 0
		if len(s) > 0 {
			capacity = int(s[len(s)-1]) + 1 // sorted: the last id is the largest
		}
		m.sets[u] = nodeset.NewBits(capacity)
		m.sets[u].AddSet(s)
	})
	return m
}

// Clone returns an independent deep copy bound to the given pattern
// (pass the same pattern, or its clone).
func (m *Match) Clone(p *pattern.Graph) *Match {
	c := &Match{p: p, sets: make([]*nodeset.Bits, len(m.sets))}
	for i, b := range m.sets {
		if b != nil {
			c.sets[i] = b.Clone()
		}
	}
	return c
}

// effectiveBound converts a pattern bound to a hop count usable with the
// oracle: "*" becomes the horizon for capped oracles (documented
// approximation) or an unbounded sentinel for exact ones.
func effectiveBound(b pattern.Bound, o shortest.Oracle) int {
	if !b.IsStar() {
		return int(b)
	}
	if o.Exact() {
		return int(shortest.Inf) - 1
	}
	return o.Horizon()
}

// supportProbe asks an oracle whether a data node has a successor in a
// candidate set within k hops: a read of the ball filtered by the set
// that stops at the first member. Its callback crosses the Oracle
// interface, so a closure written at the call site would escape together
// with its result flag, twice per probe; a drain instead makes one
// probe, binds its callback once and reuses it for every pair it checks.
type supportProbe struct {
	found bool
	hit   func(w uint32) bool
}

func newSupportProbe() *supportProbe {
	p := new(supportProbe)
	p.hit = func(uint32) bool {
		p.found = true
		return false
	}
	return p
}

// has reports whether v has a successor in cand within k hops.
func (p *supportProbe) has(o shortest.Oracle, v uint32, k int, cand *nodeset.Bits) bool {
	p.found = false
	o.ForwardBallIn(v, k, cand, p.hit)
	return p.found
}

// reached reports whether some member of cand reaches v within k hops.
func (p *supportProbe) reached(o shortest.Oracle, v uint32, k int, cand *nodeset.Bits) bool {
	p.found = false
	o.ReverseBallIn(v, k, cand, p.hit)
	return p.found
}

// Unsupported calls fn for each x of cand with no node of to's image
// within b of it: the sources a pattern edge into to, bounded by b,
// would leave without support. The edge need not be in the match's
// pattern — DER-I and DER-III ask this of an edge a batch inserts or
// deletes. fn returning false stops the check.
func (m *Match) Unsupported(cand nodeset.Set, to pattern.NodeID, b pattern.Bound, o shortest.Oracle, fn func(x uint32) bool) {
	probe, k := newSupportProbe(), effectiveBound(b, o)
	for _, x := range cand {
		if !probe.has(o, x, k, m.sets[to]) && !fn(x) {
			return
		}
	}
}

// Unreached calls fn for each y of cand that no node of from's image
// reaches within b: the targets a pattern edge out of from, bounded by
// b, would leave without a supporter. fn returning false stops the
// check.
func (m *Match) Unreached(cand nodeset.Set, from pattern.NodeID, b pattern.Bound, o shortest.Oracle, fn func(y uint32) bool) {
	probe, k := newSupportProbe(), effectiveBound(b, o)
	for _, y := range cand {
		if !probe.reached(o, y, k, m.sets[from]) && !fn(y) {
			return
		}
	}
}

// cascadeProbe re-enqueues the candidates of an in-neighbour pattern
// node that reach a removed data node — the drain's cascade. Its
// callback is bound once per drain, like supportProbe's, not once per
// removed pair and in-edge.
type cascadeProbe struct {
	w    *worklist
	u    pattern.NodeID
	push func(x uint32) bool
}

func newCascadeProbe(w *worklist) *cascadeProbe {
	p := &cascadeProbe{w: w}
	p.push = func(x uint32) bool {
		p.w.push(p.u, x)
		return true
	}
	return p
}

// recheck enqueues (u, x) for every x in cand with d(x,v) ≤ k.
func (p *cascadeProbe) recheck(o shortest.Oracle, v uint32, k int, u pattern.NodeID, cand *nodeset.Bits) {
	p.u = u
	o.ReverseBallIn(v, k, cand, p.push)
}

// Run computes the maximum bounded simulation of p in g from scratch.
func Run(p *pattern.Graph, g *graph.Graph, o shortest.Oracle) *Match {
	m := &Match{p: p, sets: make([]*nodeset.Bits, p.NumIDs())}
	n := g.NumIDs()
	p.Nodes(func(u pattern.NodeID) {
		m.sets[u] = g.LabelBits(p.Label(u)).CloneCap(n)
	})
	m.refineAll(g, o)
	return m
}

// own returns u's image for writing. A pass that starts from another
// match's images marks in owned the ones it has copied; a shared image
// is copied here, once, by one word copy sized for capacity ids. A nil
// owned means the match owns every image (Run's).
func (m *Match) own(u pattern.NodeID, owned []bool, capacity int) *nodeset.Bits {
	if owned != nil && !owned[u] {
		m.sets[u] = m.sets[u].CloneCap(capacity)
		owned[u] = true
	}
	return m.sets[u]
}

// refineAll runs the removal fixpoint over every pair until stable.
func (m *Match) refineAll(g *graph.Graph, o shortest.Oracle) {
	w := newWorklist(m.p.NumIDs(), g.NumIDs())
	m.p.Nodes(func(u pattern.NodeID) {
		m.sets[u].Range(func(v uint32) bool {
			w.push(u, v)
			return true
		})
	})
	m.drain(w, g, o, nil)
}

// Cascade removes the forced pairs from a copy of the match and runs
// the removal fixpoint over it under the match's pattern, as DER-I's
// cascade does ("check if the nodes connected to the candidates can be
// set as candidate nodes"). It returns the data nodes removed from any
// image, forced pairs included, and never writes m: the copy shares
// m's images and copies one the first time it removes from it.
func (m *Match) Cascade(forced []Pair, g *graph.Graph, o shortest.Oracle) nodeset.Set {
	if len(forced) == 0 {
		return nil
	}
	n := g.NumIDs()
	c := &Match{p: m.p, sets: slices.Clone(m.sets)}
	owned := make([]bool, len(c.sets))
	w := newWorklist(m.p.NumIDs(), n)
	cascade := newCascadeProbe(w)
	for _, f := range forced {
		if set := c.setOrNil(f.U); set != nil && set.Contains(f.V) {
			c.own(f.U, owned, n).Remove(f.V)
			c.recheckIn(f.U, f.V, o, cascade)
		}
	}
	c.drain(w, g, o, owned)
	var removed nodeset.Builder
	for u, set := range c.sets {
		if owned[u] {
			removed.AddAll(m.sets[u].DiffSet(set))
		}
	}
	return removed.Set()
}

// drain pops pairs, removes failing ones, and cascades rechecks along
// reverse pattern edges using reverse distance balls. An image is
// written only through own, with the pass's ownership mask. A drain
// that returns has emptied w and handed it back to the pool.
func (m *Match) drain(w *worklist, g *graph.Graph, o shortest.Oracle, owned []bool) {
	probe, cascade := newSupportProbe(), newCascadeProbe(w)
	for {
		u, v, ok := w.pop()
		if !ok {
			w.release() // not deferred: a read that panics leaves w unemptied
			return
		}
		set := m.sets[u]
		if set == nil || !set.Contains(v) {
			continue
		}
		if m.pairSatisfied(u, v, o, probe) {
			continue
		}
		m.own(u, owned, g.NumIDs()).Remove(v)
		m.recheckIn(u, v, o, cascade)
	}
}

// recheckIn enqueues the pairs v's removal from u's image may strip of
// their support within their bounds: every candidate of an in-neighbour
// pattern node that could reach v.
func (m *Match) recheckIn(u pattern.NodeID, v uint32, o shortest.Oracle, cascade *cascadeProbe) {
	m.p.In(u, func(uPrev pattern.NodeID, b pattern.Bound) {
		if prevSet := m.sets[uPrev]; prevSet != nil {
			cascade.recheck(o, v, effectiveBound(b, o), uPrev, prevSet)
		}
	})
}

// pairSatisfied verifies every out-edge constraint of u for data node v.
func (m *Match) pairSatisfied(u pattern.NodeID, v uint32, o shortest.Oracle, probe *supportProbe) bool {
	satisfied := true
	m.p.Out(u, func(uNext pattern.NodeID, b pattern.Bound) {
		if satisfied && !probe.has(o, v, effectiveBound(b, o), m.sets[uNext]) {
			satisfied = false
		}
	})
	return satisfied
}

// worklist is a FIFO of (pattern node, data node) pairs with per-pair
// dedup while enqueued: one bitset per pattern node, allocated on the
// node's first push and kept, with the queue, when the worklist goes
// back to the pool.
type worklist struct {
	queue    []Pair
	head     int
	queued   []*nodeset.Bits
	capacity int
}

// worklists recycles worklists across passes. A drain pops every pair,
// so a worklist comes back with its queue and its dedup bitsets empty
// and needs no clearing.
var worklists = sync.Pool{New: func() any { return new(worklist) }}

// newWorklist returns an empty worklist for a pattern with the given
// number of node ids over data node ids in [0, capacity). A pooled dedup
// bitset too small for the ids is dropped, so a push never regrows one.
func newWorklist(patternIDs, capacity int) *worklist {
	w := worklists.Get().(*worklist)
	w.capacity = capacity
	w.queued = slices.Grow(w.queued[:0], patternIDs)[:patternIDs]
	for u, q := range w.queued {
		if q != nil && q.Capacity() < capacity {
			w.queued[u] = nil
		}
	}
	return w
}

// release hands an emptied worklist back to the pool.
func (w *worklist) release() { worklists.Put(w) }

// push enqueues (u,v) and reports whether it was not already queued.
func (w *worklist) push(u pattern.NodeID, v uint32) bool {
	if w.queued[u] == nil {
		w.queued[u] = nodeset.NewBits(w.capacity)
	}
	if !w.queued[u].Add(v) {
		return false
	}
	w.queue = append(w.queue, Pair{u, v})
	return true
}

func (w *worklist) pop() (pattern.NodeID, uint32, bool) {
	if w.head >= len(w.queue) {
		return 0, 0, false
	}
	it := w.queue[w.head]
	w.head++
	if w.head == len(w.queue) {
		w.queue = w.queue[:0]
		w.head = 0
	}
	w.queued[it.U].Remove(it.V)
	return it.U, it.V, true
}
