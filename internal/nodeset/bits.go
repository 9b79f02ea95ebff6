package nodeset

import "math/bits"

// Bits is a dense bitset over node ids [0, n). The zero value is unusable;
// construct with NewBits. Bits is the membership structure used inside the
// simulation fixpoints, where ids are dense and membership flips are hot.
type Bits struct {
	words []uint64
	n     int // population count, maintained incrementally
}

// NewBits returns an empty bitset able to hold ids in [0, capacity).
func NewBits(capacity int) *Bits {
	if capacity < 0 {
		capacity = 0
	}
	return &Bits{words: make([]uint64, (capacity+63)/64)}
}

// Capacity reports the id bound the bitset was created with (rounded up
// to a multiple of 64).
func (b *Bits) Capacity() int { return len(b.words) * 64 }

// Len reports the number of set bits.
func (b *Bits) Len() int { return b.n }

// Empty reports whether no bit is set.
func (b *Bits) Empty() bool { return b.n == 0 }

// Contains reports whether id is set. Ids beyond capacity are absent.
func (b *Bits) Contains(id ID) bool {
	w := int(id >> 6)
	if w >= len(b.words) {
		return false
	}
	return b.words[w]&(1<<(id&63)) != 0
}

// Add sets id and reports whether the bit was newly set.
// Ids beyond capacity grow the bitset, at least doubling its storage, so
// an ascending fill from NewBits(0) reallocates a logarithmic number of
// times, not once per word.
func (b *Bits) Add(id ID) bool {
	w := int(id >> 6)
	if w >= len(b.words) {
		if w >= cap(b.words) {
			grown := make([]uint64, len(b.words), max(w+1, 2*cap(b.words)))
			copy(grown, b.words)
			b.words = grown
		}
		b.words = b.words[:w+1] // words never shrink, so those past len are still zero
	}
	mask := uint64(1) << (id & 63)
	if b.words[w]&mask != 0 {
		return false
	}
	b.words[w] |= mask
	b.n++
	return true
}

// Remove clears id and reports whether the bit was previously set.
func (b *Bits) Remove(id ID) bool {
	w := int(id >> 6)
	if w >= len(b.words) {
		return false
	}
	mask := uint64(1) << (id & 63)
	if b.words[w]&mask == 0 {
		return false
	}
	b.words[w] &^= mask
	b.n--
	return true
}

// Clear removes every id, retaining capacity.
func (b *Bits) Clear() {
	for i := range b.words {
		b.words[i] = 0
	}
	b.n = 0
}

// Clone returns an independent copy.
func (b *Bits) Clone() *Bits { return b.CloneCap(0) }

// CloneCap returns an independent copy able to hold ids in
// [0, max(capacity, b.Capacity())): one word copy, however many bits are
// set.
func (b *Bits) CloneCap(capacity int) *Bits {
	c := &Bits{words: make([]uint64, max(len(b.words), (capacity+63)/64)), n: b.n}
	copy(c.words, b.words)
	return c
}

// AddSet sets every id of s.
func (b *Bits) AddSet(s Set) {
	for _, id := range s {
		b.Add(id)
	}
}

// DiffSet materialises the ids set in b but absent from o as a sorted
// Set. A nil o (or receiver) counts as empty, so DiffSet doubles as Set
// against a missing baseline — the match-delta extraction's primitive.
func (b *Bits) DiffSet(o *Bits) Set {
	if b == nil || b.n == 0 {
		return nil
	}
	var out Set
	for wi, w := range b.words {
		if o != nil && wi < len(o.words) {
			w &^= o.words[wi]
		}
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, ID(wi*64+bit))
			w &= w - 1
		}
	}
	return out
}

// Set materialises the bitset as a sorted Set.
func (b *Bits) Set() Set {
	if b.n == 0 {
		return nil
	}
	out := make(Set, 0, b.n)
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			out = append(out, ID(wi*64+bit))
			w &= w - 1
		}
	}
	return out
}

// Range calls fn for every set id in ascending order; fn returning false
// stops the iteration early.
func (b *Bits) Range(fn func(ID) bool) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			if !fn(ID(wi*64 + bit)) {
				return
			}
			w &= w - 1
		}
	}
}
