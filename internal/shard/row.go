package shard

import "uagpnm/internal/shortest"

// Row is one node's full-horizon row: every node within the horizon
// once, in layers of nondecreasing distance. end[d] counts the ids at
// distance ≤ d, so the ball of radius k is the prefix ids[:end[k]] and
// layer d is ids[end[d-1]:end[d]]. ids and end share one backing array.
//
// It is the one row form of the substrate: the coordinator's ball plane
// materialises global-id rows in it, a shard worker builds its intra
// rows (local ids) in it, the wire carries its words, and the RPC
// client caches and hands out the decoded value itself. A Row is
// immutable once built and shared without copying — readers must not
// write through it. The zero Row is "no row" (Len 0, Visit visits
// nothing).
type Row struct {
	ids []uint32
	end []uint32
}

// NewRow buckets ids by their distances (parallel slices, copied) into
// a layered row: a stable counting sort, which leaves ids that already
// come nearest first — a BFS visit order — in place, and keeps ids that
// come ascending — a matrix row scan — ascending within each layer.
func NewRow(ids []uint32, dists []shortest.Dist) Row {
	layers := 1 // a row holds at least its own source, at distance 0
	for _, d := range dists {
		if int(d) >= layers {
			layers = int(d) + 1
		}
	}
	buf := make([]uint32, len(ids)+layers)
	r := Row{ids: buf[:len(ids):len(ids)], end: buf[len(ids):]}
	for _, d := range dists {
		r.end[d]++
	}
	start := uint32(0)
	for d, c := range r.end {
		r.end[d] = start // layer d's write cursor; it stops at the layer's end
		start += c
	}
	for i, id := range ids {
		d := dists[i]
		r.ids[r.end[d]] = id
		r.end[d]++
	}
	return r
}

// Len reports how many nodes the row holds.
func (r *Row) Len() int { return len(r.ids) }

// Visit calls fn for every entry within k hops, nearest layer first,
// stopping early when fn returns false. A negative k visits nothing.
func (r *Row) Visit(k int, fn func(v uint32, d shortest.Dist) bool) {
	if k >= len(r.end) {
		k = len(r.end) - 1
	}
	if k < 0 {
		return
	}
	start := uint32(0)
	for d, end := range r.end[:k+1] {
		for _, id := range r.ids[start:end] {
			if !fn(id, shortest.Dist(d)) {
				return
			}
		}
		start = end
	}
}
