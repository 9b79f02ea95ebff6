// Pattern-set discrimination index: the structure that prunes a batch's
// phase-3 fan from O(registered patterns) to O(affected patterns).
//
// Every registration contributes its pattern.Signature — label set,
// finite bound radius, star flag — keyed by label. When a batch lands,
// one shared reverse BFS from the change log (bounded by the largest
// radius any registration needs) computes, per indexed label, the
// minimum hop distance at which that label occurs near the change;
// a pattern is woken iff one of its labels occurs within its own
// effective radius. This is Beyhl & Giese's generalized-discrimination
// idea collapsed to bounded simulation: updates are routed through a
// label × distance envelope instead of broadcast to every pattern.
//
// Soundness (the conservative contract — over-approximation allowed,
// under-approximation never): simulation.Amend changes a match only by
// (a) pushing a dirty pair, which requires a candidate-set member —
// a node carrying a pattern label — inside the pair closure, or
// (b) dropping a dead old-match node, whose labels are by construction
// pattern labels. The pair closure starts at the change-log nodes that
// carry a pattern label and grows one ReverseBall hop at a time, each
// at its own pattern edge's bound (at most the signature's effective
// radius), and only through nodes that carry a pattern label. If the
// per-label BFS finds no signature label within that radius of the
// change log, no pair is admitted, zero pairs are pushed, and the
// amendment is the identity — skipping it is exact, not approximate.
// (The envelope is wider than the pair rule needs: a pattern none of
// whose labels occurs ON the change log already amends to itself.)
// Deleted (and freshly inserted) nodes are invisible to a post-batch
// BFS, so their labels are injected at distance zero (churn labels).
// The indexed ≡ unindexed ≡ Scratch differential suite and the
// FuzzIndexWake oracle pin all of this.
package hub

import (
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
)

// indexEntry is one registration's envelope under one of its labels.
type indexEntry struct {
	radius int32
	star   bool
}

// patternIndex is the discrimination structure. All access happens
// under the hub's lock; batches consult it single-threaded before the
// phase-3 fan.
type patternIndex struct {
	// byLabel buckets registrations under each label they carry:
	// label → pattern → envelope.
	byLabel map[graph.LabelID]map[PatternID]indexEntry
	// radii is a histogram of finite signature radii over registrations
	// (registration count per radius) — maxFiniteRadius bounds the
	// shared BFS without rescanning the pattern set.
	radii map[int]int
	// stars counts registrations with a "*" bound: their reach is the
	// substrate horizon (capped) or unbounded (exact), resolved at
	// batch time because the horizon can widen after registration.
	stars int
}

func newPatternIndex() *patternIndex {
	return &patternIndex{
		byLabel: make(map[graph.LabelID]map[PatternID]indexEntry),
		radii:   make(map[int]int),
	}
}

func (x *patternIndex) add(id PatternID, sig pattern.Signature) {
	e := indexEntry{radius: int32(sig.Radius), star: sig.Star}
	for _, l := range sig.Labels {
		bucket := x.byLabel[l]
		if bucket == nil {
			bucket = make(map[PatternID]indexEntry)
			x.byLabel[l] = bucket
		}
		bucket[id] = e
	}
	x.radii[sig.Radius]++
	if sig.Star {
		x.stars++
	}
}

func (x *patternIndex) remove(id PatternID, sig pattern.Signature) {
	for _, l := range sig.Labels {
		if bucket := x.byLabel[l]; bucket != nil {
			delete(bucket, id)
			if len(bucket) == 0 {
				delete(x.byLabel, l)
			}
		}
	}
	if x.radii[sig.Radius]--; x.radii[sig.Radius] == 0 {
		delete(x.radii, sig.Radius)
	}
	if sig.Star {
		x.stars--
	}
}

// update swaps a registration's signature after ΔGP mutated its
// pattern (labels and bounds both move).
func (x *patternIndex) update(id PatternID, old, sig pattern.Signature) {
	x.remove(id, old)
	x.add(id, sig)
}

// maxFiniteRadius is the largest finite radius any registration claims.
func (x *patternIndex) maxFiniteRadius() int {
	max := 0
	for r := range x.radii {
		if r > max {
			max = r
		}
	}
	return max
}

// planWake decides, for one validated batch, which of regs must enter
// the phase-3 fan. Call with h.mu held, after phase 2 (the change log
// and the post-batch graph exist, the horizon is final). churnLabels
// are the labels of nodes the batch inserted or deleted, collected
// pre-batch — deleted nodes are unreachable by a post-batch BFS, so
// their labels count as touched at distance zero.
//
// bypassed reports that the decision did not come from the index
// (index disabled, or the touch region overflowed Config.IndexRegionCap
// and every pattern was woken wholesale) — logged in BatchStats so an
// adaptive policy can learn when discrimination stops paying
// (Kanezashi et al.).
func (h *Hub) planWake(regs []*registration, b Batch, changeLog []uint32, churnLabels []graph.LabelID) (woken []bool, bypassed bool) {
	woken = make([]bool, len(regs))
	pos := make(map[PatternID]int, len(regs))
	for i, r := range regs {
		pos[r.id] = i
	}
	// ΔGP targets always wake: pattern mutation rebuilds candidates
	// regardless of the data-side touch set (validation already
	// guaranteed every id is registered).
	for pid, ups := range b.P {
		if len(ups) > 0 {
			woken[pos[pid]] = true
		}
	}
	if h.cfg.disableIndex {
		for i := range woken {
			woken[i] = true
		}
		return woken, true
	}
	if len(changeLog) == 0 && len(churnLabels) == 0 {
		return woken, false // data side was a no-op: only ΔGP targets run
	}

	exact := h.eng.Exact()
	horizon := h.eng.Horizon()
	if exact && h.idx.stars > 0 {
		// A "*" bound over exact distances has no finite envelope: any
		// change anywhere can extend a path. Wake those unconditionally.
		for i, r := range regs {
			if r.sig.Star {
				woken[i] = true
			}
		}
	}
	maxR := h.idx.maxFiniteRadius()
	if !exact && h.idx.stars > 0 && horizon > maxR {
		maxR = horizon
	}

	// One shared multi-source reverse BFS from the change log over the
	// post-batch graph, depth maxR: dist[l] is the minimum hop count at
	// which indexed label l occurs among nodes that can reach a changed
	// node. Reverse adjacency because Amend's pair closure grows through
	// ReverseBall — predecessors of the change, not successors. Dead
	// nodes are skipped exactly as post-batch distances skip them.
	dist := make(map[graph.LabelID]int)
	record := func(v uint32, d int) {
		for _, l := range h.g.NodeLabels(v) {
			if _, indexed := h.idx.byLabel[l]; !indexed {
				continue
			}
			if old, ok := dist[l]; !ok || d < old {
				dist[l] = d
			}
		}
	}
	visited := make([]bool, h.g.NumIDs())
	frontier := make([]uint32, 0, len(changeLog))
	for _, v := range changeLog {
		if int(v) < len(visited) && h.g.Alive(v) && !visited[v] {
			visited[v] = true
			frontier = append(frontier, v)
			record(v, 0)
		}
	}
	region := len(frontier)
	for d := 1; d <= maxR && len(frontier) > 0; d++ {
		var next []uint32
		for _, v := range frontier {
			for _, x := range h.g.In(v) {
				if !visited[x] {
					visited[x] = true
					region++
					record(x, d)
					next = append(next, x)
				}
			}
		}
		if limit := h.cfg.IndexRegionCap; limit > 0 && region > limit {
			// The touch region engulfs the graph — discrimination can't
			// pay for its own BFS. Wake everyone and say so.
			for i := range woken {
				woken[i] = true
			}
			return woken, true
		}
		frontier = next
	}
	for _, l := range churnLabels {
		if _, indexed := h.idx.byLabel[l]; indexed {
			dist[l] = 0
		}
	}

	// Route each touched label to the registrations bucketed under it.
	for l, d := range dist {
		for pid, e := range h.idx.byLabel[l] {
			i, ok := pos[pid]
			if !ok || woken[i] {
				continue
			}
			r := int(e.radius)
			if e.star {
				if exact {
					woken[i] = true // belt and braces; handled above
					continue
				}
				if horizon > r {
					r = horizon
				}
			}
			if d <= r {
				woken[i] = true
			}
		}
	}
	return woken, false
}
