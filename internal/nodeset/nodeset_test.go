package nodeset

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	s := New(5, 1, 3, 1, 5, 2)
	want := Set{1, 2, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("New = %v, want %v", s, want)
	}
}

func TestNewEmpty(t *testing.T) {
	if s := New(); !s.Empty() || s.Len() != 0 {
		t.Fatalf("New() should be empty, got %v", s)
	}
}

func TestContains(t *testing.T) {
	s := New(2, 4, 6, 8)
	for _, id := range []ID{2, 4, 6, 8} {
		if !s.Contains(id) {
			t.Errorf("Contains(%d) = false, want true", id)
		}
	}
	for _, id := range []ID{0, 1, 3, 5, 7, 9} {
		if s.Contains(id) {
			t.Errorf("Contains(%d) = true, want false", id)
		}
	}
}

func TestCovers(t *testing.T) {
	cases := []struct {
		s, t Set
		want bool
	}{
		{New(1, 2, 3), New(1, 3), true},
		{New(1, 2, 3), New(1, 2, 3), true},
		{New(1, 2, 3), New(), true},
		{New(), New(), true},
		{New(1, 3), New(1, 2, 3), false},
		{New(1, 2, 3), New(4), false},
		{New(), New(1), false},
	}
	for _, c := range cases {
		if got := c.s.Covers(c.t); got != c.want {
			t.Errorf("%v.Covers(%v) = %v, want %v", c.s, c.t, got, c.want)
		}
	}
}

func TestUnionIntersectDiff(t *testing.T) {
	a := New(1, 2, 3, 5)
	b := New(2, 4, 5, 6)
	if got, want := a.Union(b), New(1, 2, 3, 4, 5, 6); !got.Equal(want) {
		t.Errorf("Union = %v, want %v", got, want)
	}
	if got, want := a.Intersect(b), New(2, 5); !got.Equal(want) {
		t.Errorf("Intersect = %v, want %v", got, want)
	}
	if got, want := a.Diff(b), New(1, 3); !got.Equal(want) {
		t.Errorf("Diff = %v, want %v", got, want)
	}
}

func TestUnionWithEmpty(t *testing.T) {
	a := New(1, 2)
	if got := a.Union(nil); !got.Equal(a) {
		t.Errorf("a ∪ ∅ = %v, want %v", got, a)
	}
	if got := Set(nil).Union(a); !got.Equal(a) {
		t.Errorf("∅ ∪ a = %v, want %v", got, a)
	}
}

func TestString(t *testing.T) {
	if got, want := New(3, 1).String(), "{1, 3}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
	if got, want := New().String(), "{}"; got != want {
		t.Errorf("String = %q, want %q", got, want)
	}
}

func TestBuilder(t *testing.T) {
	var b Builder
	for _, id := range []ID{9, 1, 9, 4} {
		b.Add(id)
	}
	b.AddAll(New(2, 4))
	if got, want := b.Set(), New(1, 2, 4, 9); !got.Equal(want) {
		t.Errorf("Builder.Set = %v, want %v", got, want)
	}
	b.Reset()
	if got := b.Set(); !got.Empty() {
		t.Errorf("after Reset, Set = %v, want empty", got)
	}
}

func TestFromUnsorted(t *testing.T) {
	ids := []ID{9, 1, 9, 4, 2, 4}
	if got, want := FromUnsorted(ids), New(1, 2, 4, 9); !got.Equal(want) {
		t.Errorf("FromUnsorted = %v, want %v", got, want)
	}
	if got := FromUnsorted(nil); !got.Empty() {
		t.Errorf("FromUnsorted(nil) = %v, want empty", got)
	}
}

// Property: Covers agrees with a naive map-based superset test.
func TestCoversMatchesNaive(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		s, u := New(xs...), New(ys...)
		m := map[ID]bool{}
		for _, v := range s {
			m[v] = true
		}
		naive := true
		for _, v := range u {
			if !m[v] {
				naive = false
				break
			}
		}
		return s.Covers(u) == naive
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: union/intersection/diff relate by |A∪B| = |A|+|B|-|A∩B| and
// A = (A∩B) ∪ (A\B).
func TestSetAlgebraProperties(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := New(xs...), New(ys...)
		u, i, d := a.Union(b), a.Intersect(b), a.Diff(b)
		if u.Len() != a.Len()+b.Len()-i.Len() {
			return false
		}
		return i.Union(d).Equal(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: a set always covers itself and its intersection with anything.
func TestCoversReflexive(t *testing.T) {
	f := func(xs, ys []uint32) bool {
		a, b := New(xs...), New(ys...)
		return a.Covers(a) && a.Covers(a.Intersect(b))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBitsBasics(t *testing.T) {
	b := NewBits(128)
	if !b.Add(5) || !b.Add(64) || !b.Add(127) {
		t.Fatal("Add of fresh ids should return true")
	}
	if b.Add(5) {
		t.Fatal("Add of existing id should return false")
	}
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if !b.Contains(64) || b.Contains(63) {
		t.Fatal("Contains mismatch")
	}
	if !b.Remove(64) || b.Remove(64) {
		t.Fatal("Remove semantics wrong")
	}
	if got, want := b.Set(), New(5, 127); !got.Equal(want) {
		t.Fatalf("Set = %v, want %v", got, want)
	}
}

func TestBitsGrow(t *testing.T) {
	b := NewBits(1)
	b.Add(1000)
	if !b.Contains(1000) {
		t.Fatal("bitset should grow on Add beyond capacity")
	}
	if b.Contains(2000) {
		t.Fatal("Contains beyond capacity should be false")
	}
}

// TestBitsAscendingFillGrowsAmortised pins Add's growth past capacity:
// filling 65 536 ids ascending from NewBits(0) — a word at a time, as
// MatchFromSets fills — reallocates a
// logarithmic number of times, not once per word (1 024 times).
func TestBitsAscendingFillGrowsAmortised(t *testing.T) {
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBits(0)
		for id := range ID(1 << 16) {
			b.Add(id)
		}
		if b.Len() != 1<<16 || b.Capacity() != 1<<16 {
			t.Fatalf("Len %d, Capacity %d after the fill", b.Len(), b.Capacity())
		}
	})
	if allocs > 16 {
		t.Fatalf("an ascending fill of 65 536 ids allocates %.0f times", allocs)
	}
}

// TestBitsCloneCap: a sized clone holds the same ids with room for the
// larger of the two capacities, and stays independent of its source.
func TestBitsCloneCap(t *testing.T) {
	b := NewBits(64)
	b.AddSet(New(1, 63))
	for _, capacity := range []int{0, 64, 1000} {
		c := b.CloneCap(capacity)
		if c.Capacity() != max(64, (capacity+63)/64*64) || !c.Set().Equal(New(1, 63)) || c.Len() != 2 {
			t.Fatalf("CloneCap(%d) = %v, Capacity %d", capacity, c.Set(), c.Capacity())
		}
		c.Add(900)
		c.Remove(1)
		if !b.Set().Equal(New(1, 63)) {
			t.Fatalf("writing CloneCap(%d) moved its source to %v", capacity, b.Set())
		}
	}
}

func TestBitsClearClone(t *testing.T) {
	b := NewBits(64)
	b.AddSet(New(1, 2, 3))
	c := b.Clone()
	b.Clear()
	if b.Len() != 0 {
		t.Fatal("Clear should empty the set")
	}
	if got, want := c.Set(), New(1, 2, 3); !got.Equal(want) {
		t.Fatalf("clone affected by Clear: %v", got)
	}
}

func TestBitsRangeOrderAndEarlyStop(t *testing.T) {
	b := NewBits(256)
	ids := New(3, 70, 140, 200)
	b.AddSet(ids)
	var seen []ID
	b.Range(func(id ID) bool {
		seen = append(seen, id)
		return true
	})
	if !New(seen...).Equal(ids) || !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
		t.Fatalf("Range visited %v, want sorted %v", seen, ids)
	}
	n := 0
	b.Range(func(ID) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("early stop visited %d, want 2", n)
	}
}

// TestBitsOr: a union holds every id of both sides, counts each once,
// grows a smaller receiver and leaves its argument alone.
func TestBitsOr(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		var x, y Builder
		for i := 0; i < rng.Intn(100); i++ {
			x.Add(ID(rng.Intn(300)))
		}
		for i := 0; i < rng.Intn(100); i++ {
			y.Add(ID(rng.Intn(600)))
		}
		a, b := NewBits(rng.Intn(300)), NewBits(600)
		a.AddSet(x.Set())
		b.AddSet(y.Set())
		a.Or(b)
		want := x.Set().Union(y.Set())
		if !a.Set().Equal(want) || a.Len() != want.Len() {
			t.Fatalf("Or = %v (Len %d), want %v", a.Set(), a.Len(), want)
		}
		if !b.Set().Equal(y.Set()) {
			t.Fatalf("Or moved its argument to %v", b.Set())
		}
	}
}

// Property: Bits round-trips Sets.
func TestBitsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		var b Builder
		for i := 0; i < rng.Intn(200); i++ {
			b.Add(ID(rng.Intn(500)))
		}
		s := b.Set()
		bits := NewBits(500)
		bits.AddSet(s)
		if !bits.Set().Equal(s) {
			t.Fatalf("round trip failed for %v", s)
		}
		if bits.Len() != s.Len() {
			t.Fatalf("Len mismatch: %d vs %d", bits.Len(), s.Len())
		}
	}
}

func BenchmarkCovers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var big Builder
	for i := 0; i < 10000; i++ {
		big.Add(ID(rng.Intn(1 << 20)))
	}
	s := big.Set()
	sub := s[:len(s)/2].Clone()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Covers(sub) {
			b.Fatal("expected coverage")
		}
	}
}
