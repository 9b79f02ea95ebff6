// Pattern-set index: label → the registrations carrying it, the
// structure that prunes a batch's amendment fan from every registered
// pattern to the patterns the batch can reach (Beyhl & Giese's
// discrimination networks, collapsed to bounded simulation).
//
// The wake rule is simulation.Amend's pair rule, and its soundness is
// Amend's proof (internal/simulation/amend.go): without ΔGP, a pass
// rechecks or admits a pair (u,x) only at an alive change-log member x
// carrying label(u) whose depth δ(x) is at most maxOut(u), the largest
// bound on u's out-edges. The index files a pattern under each of its
// labels with that label's reach, the largest maxOut among the pattern's
// nodes of the label (pattern.SignatureOf), so a pattern none of whose
// labels has a member at a depth within its reach amends to itself —
// whatever its bounds, "*" included: its reach is unbounded, and the
// change log already names every node whose forward row d(x,·) moved at
// the substrate's horizon. Waking on the smallest depth per label is
// exact: a pattern with a member of label l at δ ≤ reach(l) has a node u
// of label l with maxOut(u) = reach(l), so the pass seeds (u,x). That is
// all Amend seeds on: a pair (u,x) is checked against x's forward
// distances only, so the targets of moved pairs — the other half of
// ∪Aff_N — wake nothing. A node the batch deletes is different: it
// drops out of old matches with no pair traffic. It is on the change log
// all the same at depth 0 (every node the batch inserts or deletes is,
// an insert-then-delete included), within every reach, and a dead node
// keeps its labels, so reading the labels of every change-log member,
// alive or dead, covers it. The indexed ≡ unindexed ≡ Scratch suites,
// TestHubIndexDeletedNodeWakes, TestPlanWakeDepthBoundary and
// FuzzIndexWake pin it.
package hub

import (
	"uagpnm/internal/graph"
	"uagpnm/internal/pattern"
	"uagpnm/internal/shortest"
)

// patternIndex buckets registrations under each label they carry, each
// at the label's reach in the pattern. All access happens under the
// hub's lock.
type patternIndex map[graph.LabelID]map[PatternID]int

func (x patternIndex) add(id PatternID, sig []pattern.LabelReach) {
	for _, l := range sig {
		if x[l.Label] == nil {
			x[l.Label] = make(map[PatternID]int)
		}
		x[l.Label][id] = l.Reach
	}
}

func (x patternIndex) remove(id PatternID, sig []pattern.LabelReach) {
	for _, l := range sig {
		if delete(x[l.Label], id); len(x[l.Label]) == 0 {
			delete(x, l.Label)
		}
	}
}

// planWake decides, for one validated batch, which of regs must enter
// the amendment fan: those with ΔGP, and those filed under a label of a
// change-log member, alive or dead, at a reach no smaller than the
// label's smallest depth on the log. Call with h.mu held, after the
// substrate phase. Config.disableIndex wakes everything.
func (h *Hub) planWake(regs []*registration, b Batch, log shortest.ChangeLog) []bool {
	woken := make([]bool, len(regs))
	if h.cfg.disableIndex {
		for i := range woken {
			woken[i] = true
		}
		return woken
	}
	pos := make(map[PatternID]int, len(regs))
	for i, r := range regs {
		pos[r.id] = i
	}
	// Validation already guaranteed every ΔGP id is registered.
	for pid, ups := range b.P {
		if len(ups) > 0 {
			woken[pos[pid]] = true
		}
	}
	// The smallest depth per label on the log; untouched labels stay
	// above every depth.
	depth := make([]int, h.g.Labels().Count())
	for l := range depth {
		depth[l] = shortest.MaxDepth + 1
	}
	var touched []graph.LabelID
	for i, v := range log.Nodes {
		d := log.DepthAt(i)
		for _, l := range h.g.NodeLabels(v) {
			if depth[l] > shortest.MaxDepth {
				touched = append(touched, l)
			}
			depth[l] = min(depth[l], d)
		}
	}
	for _, l := range touched {
		for pid, reach := range h.idx[l] {
			if depth[l] <= reach {
				woken[pos[pid]] = true
			}
		}
	}
	return woken
}
