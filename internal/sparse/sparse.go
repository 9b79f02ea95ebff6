// Package sparse implements the "Hybrid format" distance matrix the
// paper adopts for SLen (§IV-B Remark, citing Bell & Garland, SC'09):
// an ELL block holding up to K entries per row in fixed-width contiguous
// arrays, plus a COO-style overflow for rows denser than K. In social
// graphs most rows hold far fewer finite entries than there are nodes
// (many nodes have no in- or out-paths within the hop horizon), so the
// hybrid layout stores 2·|ND|·K cells instead of |ND|².
//
// The matrix is mutable: the incremental SLen maintenance both patches
// single cells (edge insertions) and replaces whole rows (bounded
// re-BFS after deletions).
package sparse

import (
	"cmp"
	"math"
	"slices"
)

// Dist is a shortest-path length in hops. Inf means "no path within the
// engine's hop horizon" (rendered ∞ in the paper's tables).
type Dist = uint16

// Inf is the infinite distance.
const Inf Dist = math.MaxUint16

// Col identifies a matrix column (a node id).
type Col = uint32

// noCol pads unused ELL slots.
const noCol Col = math.MaxUint32

type entry struct {
	c Col
	d Dist
}

// Matrix is a row-sparse distance matrix in hybrid ELL+COO layout.
// Construct with NewMatrix; the zero value is unusable.
type Matrix struct {
	rows int
	k    int    // ELL width
	cols []Col  // rows×k, ascending within a row, noCol-padded
	vals []Dist // rows×k
	ovf  [][]entry
	nnz  int
}

// NewMatrix returns a rows×(unbounded) matrix whose ELL block holds
// ellWidth entries per row. ellWidth < 1 is raised to 1.
func NewMatrix(rows, ellWidth int) *Matrix {
	if ellWidth < 1 {
		ellWidth = 1
	}
	m := &Matrix{rows: rows, k: ellWidth}
	m.cols = make([]Col, rows*ellWidth)
	m.vals = make([]Dist, rows*ellWidth)
	for i := range m.cols {
		m.cols[i] = noCol
	}
	m.ovf = make([][]entry, rows)
	return m
}

// Rows reports the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Nonzeros reports the number of stored (finite) entries.
func (m *Matrix) Nonzeros() int { return m.nnz }

// Get returns the entry at (r, c), or Inf when absent/out of range.
func (m *Matrix) Get(r Col, c Col) Dist {
	if int(r) >= m.rows {
		return Inf
	}
	base := int(r) * m.k
	row := m.cols[base : base+m.k]
	// ELL rows are short; linear scan beats binary search in practice.
	for i, rc := range row {
		if rc == c {
			return m.vals[base+i]
		}
		if rc > c { // sorted, padded with noCol at the end
			break
		}
	}
	if i, ok := ovfSearch(m.ovf[r], c); ok {
		return m.ovf[r][i].d
	}
	return Inf
}

// ovfSearch binary-searches a sorted overflow for column c: the index of
// its entry, or where one would go, and whether it is there. A row whose
// ball outgrows the ELL block keeps most of it in the overflow.
func ovfSearch(ov []entry, c Col) (int, bool) {
	return slices.BinarySearchFunc(ov, c, func(e entry, c Col) int { return cmp.Compare(e.c, c) })
}

// Set stores d at (r, c); d == Inf deletes the entry. Rows beyond the
// current bound are an error kept silent by design: callers grow first
// via GrowTo (enforced by a panic to surface programming errors).
func (m *Matrix) Set(r Col, c Col, d Dist) {
	if int(r) >= m.rows {
		panic("sparse: Set beyond rows; call GrowTo first")
	}
	base := int(r) * m.k
	row := m.cols[base : base+m.k]
	// Try ELL block first.
	for i, rc := range row {
		if rc == c {
			if d == Inf {
				m.removeELL(r, i)
			} else {
				m.vals[base+i] = d
			}
			return
		}
		if rc > c {
			if d == Inf {
				m.removeOvf(r, c)
				return
			}
			// Insert into ELL at i; last ELL entry (if any) spills to overflow.
			last := row[m.k-1]
			lastV := m.vals[base+m.k-1]
			copy(m.cols[base+i+1:base+m.k], m.cols[base+i:base+m.k-1])
			copy(m.vals[base+i+1:base+m.k], m.vals[base+i:base+m.k-1])
			m.cols[base+i] = c
			m.vals[base+i] = d
			m.nnz++
			if last != noCol {
				m.insertOvf(r, entry{last, lastV})
				m.nnz-- // insertOvf counted it again
			}
			return
		}
	}
	// Column is beyond every ELL entry: pad slot or overflow.
	if d == Inf {
		m.removeOvf(r, c)
		return
	}
	if row[m.k-1] == noCol {
		// Find first pad slot.
		for i, rc := range row {
			if rc == noCol {
				m.cols[base+i] = c
				m.vals[base+i] = d
				m.nnz++
				return
			}
		}
	}
	m.insertOvf(r, entry{c, d})
}

func (m *Matrix) removeELL(r Col, i int) {
	base := int(r) * m.k
	copy(m.cols[base+i:base+m.k-1], m.cols[base+i+1:base+m.k])
	copy(m.vals[base+i:base+m.k-1], m.vals[base+i+1:base+m.k])
	m.cols[base+m.k-1] = noCol
	m.nnz--
	// Promote the smallest overflow entry into the freed ELL slot to keep
	// "ELL before overflow" ordering.
	if ov := m.ovf[r]; len(ov) > 0 {
		m.cols[base+m.k-1] = ov[0].c
		m.vals[base+m.k-1] = ov[0].d
		m.ovf[r] = ov[1:]
	}
}

func (m *Matrix) removeOvf(r Col, c Col) {
	if i, ok := ovfSearch(m.ovf[r], c); ok {
		m.ovf[r] = slices.Delete(m.ovf[r], i, i+1)
		m.nnz--
	}
}

func (m *Matrix) insertOvf(r Col, e entry) {
	ov := m.ovf[r]
	i, ok := ovfSearch(ov, e.c)
	if ok {
		ov[i].d = e.d
		return
	}
	m.ovf[r] = slices.Insert(ov, i, e)
	m.nnz++
}

// SetRow replaces row r with the given parallel column/value slices.
// cols must be ascending and duplicate-free; vals must be finite.
// The slices are copied.
func (m *Matrix) SetRow(r Col, cols []Col, vals []Dist) {
	if int(r) >= m.rows {
		panic("sparse: SetRow beyond rows; call GrowTo first")
	}
	m.ClearRow(r)
	base := int(r) * m.k
	n := len(cols)
	inELL := n
	if inELL > m.k {
		inELL = m.k
	}
	copy(m.cols[base:base+inELL], cols[:inELL])
	copy(m.vals[base:base+inELL], vals[:inELL])
	if n > m.k {
		ov := make([]entry, n-m.k)
		for i := m.k; i < n; i++ {
			ov[i-m.k] = entry{cols[i], vals[i]}
		}
		m.ovf[r] = ov
	}
	m.nnz += n
}

// ClearRow removes every entry of row r.
func (m *Matrix) ClearRow(r Col) {
	if int(r) >= m.rows {
		return
	}
	base := int(r) * m.k
	for i := 0; i < m.k; i++ {
		if m.cols[base+i] == noCol {
			break
		}
		m.cols[base+i] = noCol
		m.nnz--
	}
	m.nnz -= len(m.ovf[r])
	m.ovf[r] = nil
}

// Row calls fn for every finite entry of row r in ascending column order;
// fn returning false stops early.
func (m *Matrix) Row(r Col, fn func(c Col, d Dist) bool) { m.RowWithin(r, int(Inf), fn) }

// RowWithin is Row restricted to the entries at most k. It exists so a
// bounded scan needs no filtering closure around fn.
func (m *Matrix) RowWithin(r Col, k int, fn func(c Col, d Dist) bool) {
	if int(r) >= m.rows {
		return
	}
	base := int(r) * m.k
	for i := 0; i < m.k; i++ {
		c := m.cols[base+i]
		if c == noCol {
			break
		}
		if d := m.vals[base+i]; int(d) <= k && !fn(c, d) {
			return
		}
	}
	for _, e := range m.ovf[r] {
		if int(e.d) <= k && !fn(e.c, e.d) {
			return
		}
	}
}

// RowLen reports the number of finite entries in row r.
func (m *Matrix) RowLen(r Col) int {
	if int(r) >= m.rows {
		return 0
	}
	n := 0
	base := int(r) * m.k
	for i := 0; i < m.k; i++ {
		if m.cols[base+i] == noCol {
			break
		}
		n++
	}
	return n + len(m.ovf[r])
}

// GrowTo extends the matrix to at least rows rows (no-op if smaller).
func (m *Matrix) GrowTo(rows int) {
	if rows <= m.rows {
		return
	}
	extra := (rows - m.rows) * m.k
	for i := 0; i < extra; i++ {
		m.cols = append(m.cols, noCol)
		m.vals = append(m.vals, 0)
	}
	for len(m.ovf) < rows {
		m.ovf = append(m.ovf, nil)
	}
	m.rows = rows
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := &Matrix{
		rows: m.rows,
		k:    m.k,
		cols: append([]Col(nil), m.cols...),
		vals: append([]Dist(nil), m.vals...),
		ovf:  make([][]entry, len(m.ovf)),
		nnz:  m.nnz,
	}
	for i, ov := range m.ovf {
		if len(ov) > 0 {
			c.ovf[i] = append([]entry(nil), ov...)
		}
	}
	return c
}

// OverflowEntries reports how many entries live outside the ELL block —
// the tuning signal for ELL width selection.
func (m *Matrix) OverflowEntries() int {
	n := 0
	for _, ov := range m.ovf {
		n += len(ov)
	}
	return n
}
