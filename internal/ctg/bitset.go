package ctg

import (
	"fmt"
	"math/bits"
	"strings"
)

// Bitset is a fixed-capacity set of small non-negative integers. It is used
// throughout the scheduler to represent sets of scenarios (leaf minterms) in
// which a task is active, so intersection and subset tests are the hot
// operations.
type Bitset struct {
	words []uint64
	n     int // capacity in bits
}

// NewBitset returns an empty bitset able to hold values in [0, n).
func NewBitset(n int) Bitset {
	if n < 0 {
		panic("ctg: negative bitset size")
	}
	return Bitset{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the capacity of the bitset in bits.
func (b Bitset) Len() int { return b.n }

func (b Bitset) check(i int) {
	if i < 0 || i >= b.n {
		panic(fmt.Sprintf("ctg: bitset index %d out of range [0,%d)", i, b.n))
	}
}

// Set marks bit i.
func (b Bitset) Set(i int) {
	b.check(i)
	b.words[i/64] |= 1 << uint(i%64)
}

// Get reports whether bit i is set.
func (b Bitset) Get(i int) bool {
	b.check(i)
	return b.words[i/64]&(1<<uint(i%64)) != 0
}

// Count returns the number of set bits.
func (b Bitset) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy of b.
func (b Bitset) Clone() Bitset {
	w := make([]uint64, len(b.words))
	copy(w, b.words)
	return Bitset{words: w, n: b.n}
}

// Intersects reports whether b and o share at least one set bit.
func (b Bitset) Intersects(o Bitset) bool {
	n := min(len(b.words), len(o.words))
	for i := 0; i < n; i++ {
		if b.words[i]&o.words[i] != 0 {
			return true
		}
	}
	return false
}

// ContainsAll reports whether every bit set in o is also set in b.
func (b Bitset) ContainsAll(o Bitset) bool {
	for i, w := range o.words {
		var bw uint64
		if i < len(b.words) {
			bw = b.words[i]
		}
		if w&^bw != 0 {
			return false
		}
	}
	return true
}

// UnionWith sets in b every bit set in o. The two bitsets must have the same
// capacity.
func (b Bitset) UnionWith(o Bitset) {
	if b.n != o.n {
		panic("ctg: bitset size mismatch")
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// IntersectWith clears in b every bit not set in o. The two bitsets must have
// the same capacity.
func (b Bitset) IntersectWith(o Bitset) {
	if b.n != o.n {
		panic("ctg: bitset size mismatch")
	}
	for i, w := range o.words {
		b.words[i] &= w
	}
}

// ForEach calls fn for every set bit in increasing order.
func (b Bitset) ForEach(fn func(i int)) {
	for wi, w := range b.words {
		for w != 0 {
			bit := bits.TrailingZeros64(w)
			fn(wi*64 + bit)
			w &= w - 1
		}
	}
}

// Slice returns the set bits in increasing order.
func (b Bitset) Slice() []int {
	out := make([]int, 0, b.Count())
	b.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the bitset as "{1, 4, 7}".
func (b Bitset) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	b.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&sb, "%d", i)
	})
	sb.WriteByte('}')
	return sb.String()
}
