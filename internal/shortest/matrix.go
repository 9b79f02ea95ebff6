// Package shortest implements the SLen substrate of the paper: the
// all-pairs shortest-path-length structure that GPNM consults for every
// bounded-path test, together with its incremental maintenance under
// data-graph updates (§IV) and the per-update affected-node sets Aff_N
// that drive Type II and Type III elimination detection.
//
// Distances are maintained up to a configurable hop horizon H: entries
// longer than H are ∞. Every bound the matcher tests is ≤ H (the engine
// is built with H = the pattern's largest finite bound), so capped
// distances answer all bounded tests exactly; see Engine.Exact for the
// reachability ("*") caveat. H = 0 selects the exact, unbounded mode.
package shortest

import (
	"uagpnm/internal/sparse"
)

// Dist is a shortest-path length in hops; Inf means "no path within the
// engine's horizon".
type Dist = sparse.Dist

// Inf is the infinite distance.
const Inf = sparse.Inf

// Matrix is the storage abstraction behind SLen. Two implementations
// exist, Dense (a flat |N|² array) and Hybrid (the paper's ELL+COO sparse
// format, §IV-B); an engine's horizon picks one (see NewEngine). Rows are
// indexed by source node id, columns by target id. Implementations are
// not safe for concurrent mutation; the parallel builder computes rows
// concurrently and writes them from one goroutine.
type Matrix interface {
	// Get returns the entry at (r, c), Inf when absent.
	Get(r, c uint32) Dist
	// Set stores d at (r, c); Inf deletes.
	Set(r, c uint32, d Dist)
	// SetRow replaces row r; cols ascending, vals finite, both copied.
	SetRow(r uint32, cols []uint32, vals []Dist)
	// ClearRow removes every entry of row r.
	ClearRow(r uint32)
	// Row visits row r's finite entries in ascending column order;
	// fn returning false stops early.
	Row(r uint32, fn func(c uint32, d Dist) bool)
	// RowWithin is Row restricted to the entries at most k.
	RowWithin(r uint32, k int, fn func(c uint32, d Dist) bool)
	// RowLen reports the number of finite entries in row r.
	RowLen(r uint32) int
	// Rows reports the current row-space bound.
	Rows() int
	// GrowTo extends the row space (never shrinks).
	GrowTo(rows int)
	// Clone returns an independent deep copy.
	Clone() Matrix
	// Nonzeros reports the number of stored finite entries.
	Nonzeros() int
}

// ellWidth is the ELL row width of every Hybrid.
const ellWidth = 8

// Dense is a flat row-major |N|×|N| matrix, 2 B per cell: Θ(N²) memory.
// Rows lie stride ≥ n cells apart, and GrowTo doubles the stride when n
// passes it, so a run of node inserts copies the matrix O(log n) times.
type Dense struct {
	n, stride int
	d         []Dist // stride×stride; every cell outside n×n is Inf
}

// NewDense returns an all-Inf n×n dense matrix.
func NewDense(n int) *Dense {
	m := &Dense{n: n, stride: n, d: make([]Dist, n*n)}
	for i := range m.d {
		m.d[i] = Inf
	}
	return m
}

// Get returns the entry at (r, c), Inf when out of range.
func (m *Dense) Get(r, c uint32) Dist {
	if int(r) >= m.n || int(c) >= m.n {
		return Inf
	}
	return m.d[int(r)*m.stride+int(c)]
}

// Set stores d at (r, c).
func (m *Dense) Set(r, c uint32, d Dist) {
	if int(r) >= m.n || int(c) >= m.n {
		panic("shortest: Dense.Set out of range; call GrowTo first")
	}
	m.d[int(r)*m.stride+int(c)] = d
}

// SetRow replaces row r.
func (m *Dense) SetRow(r uint32, cols []uint32, vals []Dist) {
	m.ClearRow(r)
	base := int(r) * m.stride
	for i, c := range cols {
		m.d[base+int(c)] = vals[i]
	}
}

// ClearRow sets row r to all-Inf.
func (m *Dense) ClearRow(r uint32) {
	base := int(r) * m.stride
	for i := base; i < base+m.n; i++ {
		m.d[i] = Inf
	}
}

// Row visits finite entries of row r in ascending column order.
func (m *Dense) Row(r uint32, fn func(c uint32, d Dist) bool) { m.RowWithin(r, int(Inf), fn) }

// RowWithin visits the entries of row r at most k in ascending column
// order.
func (m *Dense) RowWithin(r uint32, k int, fn func(c uint32, d Dist) bool) {
	if int(r) >= m.n {
		return
	}
	base := int(r) * m.stride
	for c := 0; c < m.n; c++ {
		if d := m.d[base+c]; d != Inf && int(d) <= k {
			if !fn(uint32(c), d) {
				return
			}
		}
	}
}

// RowLen counts finite entries of row r.
func (m *Dense) RowLen(r uint32) int {
	n := 0
	m.Row(r, func(uint32, Dist) bool { n++; return true })
	return n
}

// Rows reports the dimension.
func (m *Dense) Rows() int { return m.n }

// GrowTo extends the matrix to rows×rows, preserving content.
func (m *Dense) GrowTo(rows int) {
	if rows <= m.n {
		return
	}
	if rows > m.stride {
		stride := max(rows, 2*m.stride)
		nd := make([]Dist, stride*stride)
		for i := range nd {
			nd[i] = Inf
		}
		for r := 0; r < m.n; r++ {
			copy(nd[r*stride:r*stride+m.n], m.d[r*m.stride:r*m.stride+m.n])
		}
		m.stride, m.d = stride, nd
	}
	m.n = rows
}

// Clone returns a deep copy.
func (m *Dense) Clone() Matrix {
	return &Dense{n: m.n, stride: m.stride, d: append([]Dist(nil), m.d...)}
}

// Nonzeros counts finite entries.
func (m *Dense) Nonzeros() int {
	n := 0
	for _, d := range m.d {
		if d != Inf {
			n++
		}
	}
	return n
}

// Hybrid adapts the sparse ELL+COO matrix to the Matrix interface.
type Hybrid struct {
	*sparse.Matrix
}

// NewHybrid returns a rows-row hybrid matrix.
func NewHybrid(rows int) *Hybrid {
	return &Hybrid{sparse.NewMatrix(rows, ellWidth)}
}

// Clone returns a deep copy.
func (m *Hybrid) Clone() Matrix { return &Hybrid{m.Matrix.Clone()} }
