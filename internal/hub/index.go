// Pattern-set index: label → the registrations carrying it, the
// structure that prunes a batch's amendment fan from every registered
// pattern to the patterns the batch can reach (Beyhl & Giese's
// discrimination networks, collapsed to bounded simulation).
//
// The wake rule is simulation.Amend's pair rule, and its soundness is
// Amend's proof (internal/simulation/amend.go): without ΔGP, a pass
// rechecks or admits a pair only at an alive change-log node carrying
// one of the pattern's labels, so a pattern with no label on the change
// log amends to itself — whatever its bounds, "*" included, since the
// change log already names every node whose forward row d(x,·) moved at
// the substrate's horizon. That is all Amend seeds on: a pair (u,x) is
// checked against x's forward distances only, so the targets of moved
// pairs — the other half of ∪Aff_N — wake nothing. A node the
// batch deletes is different: it drops out of old matches with no pair
// traffic. It is on the change log all the same (every node the batch
// inserts or deletes is, an insert-then-delete included), and a dead
// node keeps its labels, so reading the labels of every change-log
// member, alive or dead, covers it. The indexed ≡ unindexed ≡ Scratch
// suites, TestHubIndexDeletedNodeWakes and FuzzIndexWake pin it.
package hub

import "uagpnm/internal/graph"

// patternIndex buckets registrations under each label they carry. All
// access happens under the hub's lock.
type patternIndex map[graph.LabelID]map[PatternID]struct{}

func (x patternIndex) add(id PatternID, labels []graph.LabelID) {
	for _, l := range labels {
		if x[l] == nil {
			x[l] = make(map[PatternID]struct{})
		}
		x[l][id] = struct{}{}
	}
}

func (x patternIndex) remove(id PatternID, labels []graph.LabelID) {
	for _, l := range labels {
		if delete(x[l], id); len(x[l]) == 0 {
			delete(x, l)
		}
	}
}

// planWake decides, for one validated batch, which of regs must enter
// the amendment fan: those with ΔGP, and those carrying a label of a
// change-log node, alive or dead. Call with h.mu held, after the
// substrate phase. Config.disableIndex wakes everything.
func (h *Hub) planWake(regs []*registration, b Batch, changeLog []uint32) []bool {
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
	touched := make([]bool, h.g.Labels().Count())
	for _, v := range changeLog {
		for _, l := range h.g.NodeLabels(v) {
			if touched[l] {
				continue
			}
			touched[l] = true
			for pid := range h.idx[l] {
				woken[pos[pid]] = true
			}
		}
	}
	return woken
}
