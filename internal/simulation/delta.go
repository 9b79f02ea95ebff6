package simulation

import (
	"fmt"
	"strings"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/pattern"
)

// NodeDelta is the change of one pattern node's GPNM result between two
// subsequent queries: the data nodes that entered (Added) and left
// (Removed) the node matching result Npi.
type NodeDelta struct {
	Node    pattern.NodeID
	Added   nodeset.Set
	Removed nodeset.Set
}

// String renders the delta compactly, e.g. "u2 +{3 7} -{1}".
func (d NodeDelta) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "u%d", d.Node)
	if len(d.Added) > 0 {
		fmt.Fprintf(&sb, " +%v", d.Added)
	}
	if len(d.Removed) > 0 {
		fmt.Fprintf(&sb, " -%v", d.Removed)
	}
	return sb.String()
}

// Delta extracts the subscriber-visible change between two matches of
// the same evolving query: per pattern node, the ids added to and
// removed from the GPNM result Npi (the BGS-projected view — a match
// with any empty image projects to ∅ everywhere, §III-B, so a query
// crossing the total/non-total boundary reports the whole result as
// added or removed). Pattern node ids are stable across updates, so
// nodes present in only one of the two patterns contribute pure
// additions or removals. An image cur shares with old (Amend shares
// every image the batch left alone) is equal by construction and is
// skipped without a diff — compared after the projection, so a query
// that crossed the boundary still reports its shared images. The
// returned sets are freshly allocated and never alias either match.
func Delta(old, cur *Match) []NodeDelta {
	maxIDs := 0
	if old != nil {
		maxIDs = len(old.sets)
	}
	if cur != nil && len(cur.sets) > maxIDs {
		maxIDs = len(cur.sets)
	}
	oldTotal := old != nil && old.Total()
	curTotal := cur != nil && cur.Total()
	var out []NodeDelta
	for id := 0; id < maxIDs; id++ {
		u := pattern.NodeID(id)
		var ob, cb *nodeset.Bits
		if oldTotal {
			ob = old.setOrNil(u)
		}
		if curTotal {
			cb = cur.setOrNil(u)
		}
		if ob == cb {
			continue
		}
		added := cb.DiffSet(ob)
		removed := ob.DiffSet(cb)
		if len(added) > 0 || len(removed) > 0 {
			out = append(out, NodeDelta{Node: u, Added: added, Removed: removed})
		}
	}
	return out
}
