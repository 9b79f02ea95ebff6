package shard

import (
	"math"

	"uagpnm/internal/nodeset"
	"uagpnm/internal/shortest"
)

// Row is one node's row: every node within the horizon — or, on the
// coordinator's ball plane, within the depth its reads have asked for —
// once, in layers of nondecreasing distance. Its words are one array:
// the layer count L, the layer table end[0..L), then the ids layer after
// layer. end[d] counts the ids at distance ≤ d, so the ball of radius k
// is the first end[k] ids and layer d is ids[end[d-1]:end[d]]. The words
// are 16 bits wide when every one of them fits — a row over an id space
// below 65 536, as a shard's local rows and a small graph's global rows
// are — and 32 bits otherwise: the width follows from the contents, and
// a narrow row takes half the memory.
//
// It is the one row form of the substrate: the coordinator's ball plane
// materialises global-id rows in it, a shard worker builds its intra
// rows (local ids) in it, the wire carries its words, and the RPC
// client caches and hands out the decoded value itself. A Row is
// immutable once built and shared without copying — readers must not
// write through it. The zero Row is "no row" (Len 0, Visit visits
// nothing).
type Row struct {
	narrow []uint16 // the words, when every one fits 16 bits
	wide   []uint32 // the words otherwise
}

// rowWord is the width of a row's words.
type rowWord interface{ ~uint16 | ~uint32 }

// NewRow buckets ids by their distances (parallel slices, copied) into
// a layered row: a stable counting sort, which leaves ids that already
// come nearest first — a BFS visit order — in place, and keeps ids that
// come ascending — a matrix row scan — ascending within each layer.
func NewRow(ids []uint32, dists []shortest.Dist) Row {
	layers := 1 // a row holds at least its own source, at distance 0
	fits := len(ids) <= math.MaxUint16
	for i, d := range dists {
		if int(d) >= layers {
			layers = int(d) + 1
		}
		fits = fits && ids[i] <= math.MaxUint16
	}
	n := 1 + layers + len(ids) // L ≤ maxLayers fits either width
	if fits {
		return Row{narrow: layered(make([]uint16, n), ids, dists)}
	}
	return Row{wide: layered(make([]uint32, n), ids, dists)}
}

// layered writes a row's words into buf, sized 1+L+len(ids).
func layered[W rowWord](buf []W, ids []uint32, dists []shortest.Dist) []W {
	layers := len(buf) - 1 - len(ids)
	buf[0] = W(layers)
	end, out := buf[1:1+layers], buf[1+layers:]
	for _, d := range dists {
		end[d]++
	}
	start := W(0)
	for d, c := range end {
		end[d] = start // layer d's write cursor; it stops at the layer's end
		start += c
	}
	for i, id := range ids {
		d := dists[i]
		out[end[d]] = W(id)
		end[d]++
	}
	return buf
}

// words reports how many words the row holds (0 for the zero Row).
func (r *Row) words() int { return len(r.narrow) + len(r.wide) }

// Len reports how many nodes the row holds.
func (r *Row) Len() int { return rowLen(r.narrow) + rowLen(r.wide) }

func rowLen[W rowWord](buf []W) int {
	if len(buf) == 0 {
		return 0
	}
	return len(buf) - 1 - int(buf[0])
}

// Layers reports how many layers the row holds — one past its farthest
// distance (0 for the zero Row).
func (r *Row) Layers() int {
	if r.narrow != nil {
		return int(r.narrow[0])
	}
	if r.wide != nil {
		return int(r.wide[0])
	}
	return 0
}

// Visit calls fn for every entry within k hops, nearest layer first,
// stopping early when fn returns false. A negative k visits nothing.
func (r *Row) Visit(k int, fn func(v uint32, d shortest.Dist) bool) { r.Scan(0, k, fn) }

// Scan calls fn for every entry of layers from through to (as far as the
// row reaches), nearest layer first, and reports whether it got through
// them all: false when fn stopped it.
func (r *Row) Scan(from, to int, fn func(v uint32, d shortest.Dist) bool) bool {
	if r.narrow != nil {
		return scan(r.narrow, from, to, fn)
	}
	return scan(r.wide, from, to, fn)
}

// ScanIn calls fn for every entry of layers from through to that set
// holds, in row order, and reports whether it got through them all: a
// tight loop over the words with a membership test per entry, no call
// per entry. fn returning false stops the scan.
func (r *Row) ScanIn(from, to int, set *nodeset.Bits, fn func(v uint32) bool) bool {
	if r.narrow != nil {
		return scanIn(r.narrow, from, to, set, fn)
	}
	return scanIn(r.wide, from, to, set, fn)
}

func scan[W rowWord](buf []W, from, to int, fn func(v uint32, d shortest.Dist) bool) bool {
	if len(buf) == 0 {
		return true
	}
	layers := int(buf[0])
	end, ids := buf[1:1+layers], buf[1+layers:]
	for d := max(from, 0); d <= min(to, layers-1); d++ {
		lo := W(0)
		if d > 0 {
			lo = end[d-1]
		}
		for _, id := range ids[lo:end[d]] {
			if !fn(uint32(id), shortest.Dist(d)) {
				return false
			}
		}
	}
	return true
}

func scanIn[W rowWord](buf []W, from, to int, set *nodeset.Bits, fn func(v uint32) bool) bool {
	if len(buf) == 0 {
		return true
	}
	layers := int(buf[0])
	from, to = max(from, 0), min(to, layers-1)
	if from > to {
		return true
	}
	end, ids := buf[1:1+layers], buf[1+layers:]
	lo := W(0)
	if from > 0 {
		lo = end[from-1]
	}
	for _, id := range ids[lo:end[to]] {
		if set.Contains(uint32(id)) && !fn(uint32(id)) {
			return false
		}
	}
	return true
}
