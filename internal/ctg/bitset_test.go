package ctg

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	b := NewBitset(130)
	if b.Len() != 130 {
		t.Fatalf("Len = %d, want 130", b.Len())
	}
	if b.Count() != 0 {
		t.Fatal("new bitset should be empty")
	}
	for _, i := range []int{0, 1, 63, 64, 65, 129} {
		b.Set(i)
		if !b.Get(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if b.Count() != 6 {
		t.Fatalf("Count = %d, want 6", b.Count())
	}
	if got := b.Slice(); len(got) != 6 || got[0] != 0 || got[5] != 129 {
		t.Fatalf("Slice = %v", got)
	}
	if b.String() != "{0, 1, 63, 64, 65, 129}" {
		t.Fatalf("String = %q", b.String())
	}
}

func TestBitsetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range index")
		}
	}()
	b := NewBitset(10)
	b.Set(10)
}

func TestBitsetSetOps(t *testing.T) {
	a := NewBitset(100)
	b := NewBitset(100)
	a.Set(3)
	a.Set(70)
	b.Set(70)
	b.Set(99)

	if !a.Intersects(b) {
		t.Fatal("a and b share bit 70")
	}
	c := a.Clone()
	c.UnionWith(b)
	if c.Count() != 3 || !c.Get(3) || !c.Get(70) || !c.Get(99) {
		t.Fatalf("union = %v", c)
	}
	if !c.ContainsAll(a) || !c.ContainsAll(b) {
		t.Fatal("union must contain both operands")
	}
	if a.ContainsAll(c) {
		t.Fatal("a must not contain the union")
	}
	d := a.Clone()
	d.IntersectWith(b)
	if d.Count() != 1 || !d.Get(70) {
		t.Fatalf("intersection = %v", d)
	}
	c.Clear()
	if c.Count() != 0 || c.Len() != 100 || c.Intersects(a) {
		t.Fatalf("cleared = %v (len %d)", c, c.Len())
	}
}

func TestBitsetCloneIndependence(t *testing.T) {
	a := NewBitset(64)
	a.Set(5)
	b := a.Clone()
	b.Set(6)
	if a.Get(6) {
		t.Fatal("mutating clone must not affect original")
	}
}

// Property: Count equals the number of distinct indices inserted.
func TestBitsetCountProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		size := int(n)%200 + 1
		b := NewBitset(size)
		seen := map[int]bool{}
		for i := 0; i < 50; i++ {
			k := rng.Intn(size)
			b.Set(k)
			seen[k] = true
		}
		return b.Count() == len(seen)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach visits exactly the set bits in increasing order.
func TestBitsetForEachOrdered(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := NewBitset(300)
		for i := 0; i < 40; i++ {
			b.Set(rng.Intn(300))
		}
		prev := -1
		ok := true
		b.ForEach(func(i int) {
			if i <= prev || !b.Get(i) {
				ok = false
			}
			prev = i
		})
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
