package shortest

import (
	"math/rand"
	"testing"

	"uagpnm/internal/sparse"
)

// TestMatrixConformance drives Dense and Hybrid through the same random
// operation sequence and asserts identical observable behaviour — the
// engines treat them interchangeably.
func TestMatrixConformance(t *testing.T) {
	const n = 24
	dense := Matrix(NewDense(n))
	hybrid := Matrix(&Hybrid{sparse.NewMatrix(n, 3)}) // narrow, so rows overflow
	rng := rand.New(rand.NewSource(6))
	for step := 0; step < 4000; step++ {
		r := uint32(rng.Intn(n))
		c := uint32(rng.Intn(n))
		switch rng.Intn(10) {
		case 0:
			dense.ClearRow(r)
			hybrid.ClearRow(r)
		case 1:
			k := rng.Intn(6)
			cols := make([]uint32, 0, k)
			seen := map[uint32]bool{}
			for len(cols) < k {
				x := uint32(rng.Intn(n))
				if !seen[x] {
					seen[x] = true
					cols = append(cols, x)
				}
			}
			for i := 1; i < len(cols); i++ {
				for j := i; j > 0 && cols[j-1] > cols[j]; j-- {
					cols[j-1], cols[j] = cols[j], cols[j-1]
				}
			}
			vals := make([]Dist, len(cols))
			for i := range vals {
				vals[i] = Dist(rng.Intn(9))
			}
			dense.SetRow(r, cols, vals)
			hybrid.SetRow(r, cols, vals)
		case 2:
			dense.Set(r, c, Inf)
			hybrid.Set(r, c, Inf)
		default:
			d := Dist(rng.Intn(9))
			dense.Set(r, c, d)
			hybrid.Set(r, c, d)
		}
	}
	if dense.Nonzeros() != hybrid.Nonzeros() {
		t.Fatalf("nonzeros: dense %d, hybrid %d", dense.Nonzeros(), hybrid.Nonzeros())
	}
	for r := uint32(0); r < n; r++ {
		if dense.RowLen(r) != hybrid.RowLen(r) {
			t.Fatalf("RowLen(%d): dense %d, hybrid %d", r, dense.RowLen(r), hybrid.RowLen(r))
		}
		for c := uint32(0); c < n; c++ {
			if a, b := dense.Get(r, c), hybrid.Get(r, c); a != b {
				t.Fatalf("Get(%d,%d): dense %v, hybrid %v", r, c, a, b)
			}
		}
		var dc, hc []uint32
		dense.Row(r, func(c uint32, _ Dist) bool { dc = append(dc, c); return true })
		hybrid.Row(r, func(c uint32, _ Dist) bool { hc = append(hc, c); return true })
		if len(dc) != len(hc) {
			t.Fatalf("Row(%d) lengths differ: %v vs %v", r, dc, hc)
		}
		for i := range dc {
			if dc[i] != hc[i] {
				t.Fatalf("Row(%d) order differs at %d: %v vs %v", r, i, dc, hc)
			}
		}
	}
}

func TestDenseGrowTo(t *testing.T) {
	m := NewDense(2)
	m.Set(0, 1, 3)
	m.Set(1, 0, 4)
	m.GrowTo(5)
	if m.Rows() != 5 {
		t.Fatalf("Rows = %d, want 5", m.Rows())
	}
	if m.Get(0, 1) != 3 || m.Get(1, 0) != 4 {
		t.Fatal("grow lost data")
	}
	if m.Get(4, 4) != Inf {
		t.Fatal("new cells must be Inf")
	}
	m.Set(4, 0, 1)
	if m.Get(4, 0) != 1 {
		t.Fatal("write to grown area failed")
	}
	m.GrowTo(3)
	if m.Rows() != 5 {
		t.Fatal("GrowTo must never shrink")
	}
}

// TestDenseGrowsAmortised: growing a Dense one id at a time, as every
// exact-mode node insert does, keeps every entry and allocates only when
// the stride doubles: a logarithmic number of times, not once per id.
func TestDenseGrowsAmortised(t *testing.T) {
	const n = 2000
	allocs := testing.AllocsPerRun(1, func() {
		m := NewDense(1)
		m.Set(0, 0, 0)
		for rows := 2; rows <= n; rows++ {
			m.GrowTo(rows)
			r := uint32(rows - 1)
			m.Set(r, r, 0)
			m.Set(r, r/2, Dist(r%9+1))
			m.Set(r/3, r, Dist(r%5+1))
		}
		if m.Rows() != n {
			t.Fatalf("Rows = %d after the grows, want %d", m.Rows(), n)
		}
		want := 1 + 3*(n-1) // (0,0), then three distinct cells per grown row
		for r := uint32(1); r < n; r++ {
			if m.Get(r, r) != 0 || m.Get(r, r/2) != Dist(r%9+1) || m.Get(r/3, r) != Dist(r%5+1) {
				t.Fatalf("row %d lost an entry: %v %v %v", r, m.Get(r, r), m.Get(r, r/2), m.Get(r/3, r))
			}
		}
		if m.Nonzeros() != want || m.Get(n-1, n-2) != Inf || m.Get(n, 0) != Inf {
			t.Fatalf("Nonzeros = %d, want %d; untouched cells must stay Inf", m.Nonzeros(), want)
		}
	})
	if allocs > 24 {
		t.Fatalf("%d single-id grows allocate %.0f times", n-1, allocs)
	}
}

func TestDenseCloneIndependence(t *testing.T) {
	m := NewDense(3)
	m.Set(1, 2, 7)
	c := m.Clone()
	c.Set(1, 2, 1)
	if m.Get(1, 2) != 7 {
		t.Fatal("clone mutation leaked")
	}
}

func TestGraphBall(t *testing.T) {
	g, ids := paperGraph()
	gb := NewGraphBall()
	ball := gb.Ball(g, ids["PM1"], 1, false)
	set := map[uint32]bool{}
	for _, id := range ball {
		set[id] = true
	}
	if len(ball) != 3 || !set[ids["PM1"]] || !set[ids["SE2"]] || !set[ids["DB1"]] {
		t.Fatalf("Ball(PM1,1) = %v", ball)
	}
	if got := gb.Ball(g, ids["PM1"], -1, false); got != nil {
		t.Fatalf("negative radius must be empty, got %v", got)
	}
	cols, dists := gb.Row(g, ids["PM1"], 2, false)
	if len(cols) != len(dists) || len(cols) < 4 {
		t.Fatalf("Row sizes: %d cols, %d dists", len(cols), len(dists))
	}
	e := NewEngine(g, 2)
	e.Build()
	row := map[uint32]Dist{}
	for i, c := range cols {
		if _, dup := row[c]; dup {
			t.Fatalf("Row visits %d twice", c)
		}
		row[c] = dists[i]
		if i > 0 && dists[i-1] > dists[i] {
			t.Fatalf("Row distances must never decrease: %v", dists)
		}
	}
	e.ForwardBall(ids["PM1"], 2, func(v uint32, d Dist) bool {
		if got, ok := row[v]; !ok || got != d {
			t.Fatalf("Row[%d] = %d (present %v), engine says %d", v, got, ok, d)
		}
		delete(row, v)
		return true
	})
	if len(row) != 0 {
		t.Fatalf("Row holds entries the engine does not: %v", row)
	}
}
