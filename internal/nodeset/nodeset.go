// Package nodeset provides compact set algebra over node identifiers.
//
// Two representations are offered and used throughout the repository:
//
//   - Set: an immutable-by-convention sorted slice of node ids. Sets are
//     the currency of the elimination machinery (Can_N, Aff_N in the
//     paper): the EH-Tree is built from coverage (superset) tests between
//     them, which run in linear time on the sorted representation.
//   - Bits: a dense bitset keyed by node id, used inside the matching
//     fixpoints where O(1) membership updates dominate.
//
// Node ids are uint32 throughout the repository; graphs at the scale this
// library targets (≤ tens of millions of nodes) fit comfortably.
package nodeset

import (
	"fmt"
	"sort"
	"strings"
)

// ID is a node identifier. The zero value is a valid id.
type ID = uint32

// Set is a sorted, duplicate-free slice of node ids.
//
// The zero value is the empty set. Operations never mutate their
// receivers unless documented otherwise; they return new sets (or the
// receiver when the result is identical, as an allocation optimisation).
type Set []ID

// New builds a Set from arbitrary ids, sorting and de-duplicating.
func New(ids ...ID) Set {
	if len(ids) == 0 {
		return nil
	}
	s := make(Set, len(ids))
	copy(s, ids)
	SortIDs(s)
	return s.dedupInPlace()
}

// FromSorted adopts ids as a Set. ids must already be sorted ascending
// and duplicate-free; this is not checked. Use New when in doubt.
func FromSorted(ids []ID) Set { return Set(ids) }

// FromUnsorted sorts and de-duplicates ids in place and adopts the
// result as a Set: New without the copy, for callers that own ids.
func FromUnsorted(ids []ID) Set {
	SortIDs(ids)
	return Set(ids).dedupInPlace()
}

func (s Set) dedupInPlace() Set {
	if len(s) < 2 {
		return s
	}
	w := 1
	for i := 1; i < len(s); i++ {
		if s[i] != s[w-1] {
			s[w] = s[i]
			w++
		}
	}
	return s[:w]
}

// Len reports the number of ids in the set.
func (s Set) Len() int { return len(s) }

// Empty reports whether the set has no elements.
func (s Set) Empty() bool { return len(s) == 0 }

// Contains reports whether id is a member, by binary search.
func (s Set) Contains(id ID) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Clone returns an independent copy of the set.
func (s Set) Clone() Set {
	if s == nil {
		return nil
	}
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Equal reports whether s and t hold exactly the same ids.
func (s Set) Equal(t Set) bool {
	if len(s) != len(t) {
		return false
	}
	for i := range s {
		if s[i] != t[i] {
			return false
		}
	}
	return true
}

// Covers reports whether s ⊇ t. This is the elimination test of the
// paper: update A eliminates update B when A's node set covers B's.
// Runs in O(len(s)+len(t)).
func (s Set) Covers(t Set) bool {
	if len(t) > len(s) {
		return false
	}
	i := 0
	for _, v := range t {
		for i < len(s) && s[i] < v {
			i++
		}
		if i == len(s) || s[i] != v {
			return false
		}
		i++
	}
	return true
}

// Union returns s ∪ t.
func (s Set) Union(t Set) Set {
	if len(s) == 0 {
		return t.Clone()
	}
	if len(t) == 0 {
		return s.Clone()
	}
	out := make(Set, 0, len(s)+len(t))
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			out = append(out, s[i])
			i++
		case s[i] > t[j]:
			out = append(out, t[j])
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	out = append(out, s[i:]...)
	out = append(out, t[j:]...)
	return out
}

// Intersect returns s ∩ t.
func (s Set) Intersect(t Set) Set {
	var out Set
	i, j := 0, 0
	for i < len(s) && j < len(t) {
		switch {
		case s[i] < t[j]:
			i++
		case s[i] > t[j]:
			j++
		default:
			out = append(out, s[i])
			i++
			j++
		}
	}
	return out
}

// Diff returns s \ t.
func (s Set) Diff(t Set) Set {
	var out Set
	j := 0
	for _, v := range s {
		for j < len(t) && t[j] < v {
			j++
		}
		if j == len(t) || t[j] != v {
			out = append(out, v)
		}
	}
	return out
}

// String renders the set as "{1, 2, 3}" for diagnostics and tests.
func (s Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte('}')
	return b.String()
}

// Builder accumulates ids (in any order, with duplicates) and produces a
// Set. It exists so hot loops can append cheaply and normalise once.
type Builder struct {
	ids []ID
}

// Add appends id to the builder.
func (b *Builder) Add(id ID) { b.ids = append(b.ids, id) }

// AddAll appends every id of s to the builder.
func (b *Builder) AddAll(s Set) { b.ids = append(b.ids, s...) }

// Len reports how many ids (with duplicates) have been added.
func (b *Builder) Len() int { return len(b.ids) }

// Set normalises the accumulated ids into a Set. The builder may be
// reused afterwards; the returned Set is independent.
func (b *Builder) Set() Set {
	s := New(b.ids...)
	return s
}

// Reset empties the builder, retaining capacity.
func (b *Builder) Reset() { b.ids = b.ids[:0] }
