package shortest

import (
	"math"

	"uagpnm/internal/nodeset"
)

// ChangeLog is what a data batch moved, as the amendment (its seeds)
// and the hub's wake index read it: the forward log with a depth per
// member.
//
// Nodes, ascending, holds the source x of every pair (x,y) whose
// distance moved, plus every node the batch inserted or deleted — the
// nodes whose forward row d(x,·) moved. Depth[i] is δ(Nodes[i]), a lower
// bound on min(old, new) over every moved pair (x,·): x's ball of any
// radius below δ(x) holds the same nodes at the same distances before
// and after the batch. Per update, δ(x) is d(x,u)+1 for an edge (u,v),
// d(x,id) for a node delete and 0 for the inserted or deleted node
// itself; a member named by several updates keeps the smallest.
//
// A smaller depth is always sound, so depths saturate at MaxDepth, and
// a nil Depth reads as 0 for every member: a bare seed set (an EH root's
// Aff_N, a one-off recheck) is a ChangeLog with no depths.
type ChangeLog struct {
	Nodes nodeset.Set
	Depth []uint8
}

// MaxDepth is the largest depth a ChangeLog stores.
const MaxDepth = math.MaxUint8

// Len is the number of members.
func (l ChangeLog) Len() int { return len(l.Nodes) }

// DepthAt is δ(Nodes[i]).
func (l ChangeLog) DepthAt(i int) int {
	if l.Depth == nil {
		return 0
	}
	return int(l.Depth[i])
}

// LogBuilder assembles a ChangeLog member by member, each at its
// smallest depth, in time linear in the adds plus the id space over 64:
// a bitset of the members and a depth per id. Log hands the log out and
// empties the builder for the next batch; Grow sizes it for the graph's
// ids first, so no add regrows it.
type LogBuilder struct {
	members *nodeset.Bits
	depth   []uint8 // by id; read for members only
}

// Grow makes room for ids below n, doubling what it outgrows.
func (b *LogBuilder) Grow(n int) {
	if n <= len(b.depth) {
		return
	}
	n = max(n, 2*len(b.depth))
	members := nodeset.NewBits(n)
	if b.members != nil {
		b.members.Range(func(x uint32) bool { members.Add(x); return true })
	}
	b.members = members
	b.depth = append(b.depth, make([]uint8, n-len(b.depth))...)
}

// Add puts x on the log at depth d (saturated at MaxDepth), or lowers
// its depth to d.
func (b *LogBuilder) Add(x uint32, d int) {
	if int(x) >= len(b.depth) {
		b.Grow(int(x) + 1)
	}
	d = min(d, MaxDepth)
	if b.members.Add(x) || uint8(d) < b.depth[x] {
		b.depth[x] = uint8(d)
	}
}

// Log is the members ascending at their depths; the builder is empty
// afterwards.
func (b *LogBuilder) Log() ChangeLog {
	if b.members == nil || b.members.Empty() {
		return ChangeLog{}
	}
	l := ChangeLog{Nodes: b.members.Set()}
	l.Depth = make([]uint8, len(l.Nodes))
	for i, x := range l.Nodes {
		l.Depth[i] = b.depth[x]
	}
	b.members.Clear()
	return l
}
