package platform

import (
	"errors"
	"math"
	"testing"
)

// maskTestPlatform builds a 3-task × 3-PE heterogeneous platform.
func maskTestPlatform(t *testing.T) *Platform {
	t.Helper()
	b := NewBuilder(3, 3)
	b.SetTask(0, []float64{1, 2, 3}, []float64{3, 2, 1})
	b.SetTask(1, []float64{2, 1, 2}, []float64{1, 1, 1})
	b.SetTask(2, []float64{3, 3, 1}, []float64{2, 2, 2})
	b.SetAllLinks(2, 0.5)
	p, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFullMaskRestrictIsIdentity(t *testing.T) {
	p := maskTestPlatform(t)
	r, err := p.Restrict(FullMask(3))
	if err != nil {
		t.Fatal(err)
	}
	if r != p {
		t.Fatal("Restrict(full) must return the receiver unchanged")
	}
	if p.Restricted() {
		t.Fatal("healthy platform must not report Restricted")
	}
	if got := p.NumAlivePEs(); got != 3 {
		t.Fatalf("NumAlivePEs = %d, want 3", got)
	}
	if !p.PEAlive(1) || !p.LinkUp(0, 2) {
		t.Fatal("healthy platform must report full availability")
	}
}

func TestRestrictDeadPE(t *testing.T) {
	p := maskTestPlatform(t)
	m := FullMask(3)
	m.PEs[1] = false
	r, err := p.Restrict(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.PEAlive(1) {
		t.Fatal("PE 1 must be dead on the restricted view")
	}
	if !r.Restricted() || r.NumAlivePEs() != 2 {
		t.Fatalf("restricted view: Restricted=%v alive=%d", r.Restricted(), r.NumAlivePEs())
	}
	// Links touching the dead PE are down; the rest stay up.
	if r.LinkUp(0, 1) || r.LinkUp(1, 2) {
		t.Fatal("links touching a dead PE must be down")
	}
	if !r.LinkUp(0, 2) || !r.LinkUp(2, 0) {
		t.Fatal("links between survivors must stay up")
	}
	// avgWCET is recomputed over survivors: task 0 has WCET {1,2,3}, so the
	// survivor mean over PEs {0,2} is 2, not the healthy 2.
	if got, want := r.AvgWCET(0), (1.0+3.0)/2; got != want {
		t.Fatalf("survivor AvgWCET = %v, want %v", got, want)
	}
	// The original platform is untouched.
	if !p.PEAlive(1) || p.AvgWCET(0) != 2 {
		t.Fatal("Restrict mutated the receiver")
	}
}

func TestRestrictLinkOutage(t *testing.T) {
	p := maskTestPlatform(t)
	m := FullMask(3)
	m.Links[0][2] = false
	r, err := p.Restrict(m)
	if err != nil {
		t.Fatal(err)
	}
	if r.LinkUp(0, 2) {
		t.Fatal("link 0->2 must be down")
	}
	if !r.LinkUp(2, 0) {
		t.Fatal("the reverse link is independent and must stay up")
	}
	if r.NumAlivePEs() != 3 {
		t.Fatal("a link outage must not kill PEs")
	}
}

func TestRestrictRejectsAllDead(t *testing.T) {
	p := maskTestPlatform(t)
	m := FullMask(3)
	for pe := range m.PEs {
		m.PEs[pe] = false
	}
	_, err := p.Restrict(m)
	var ie *InfeasibleMaskError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InfeasibleMaskError, got %v", err)
	}
}

func TestRestrictRejectsWrongSize(t *testing.T) {
	p := maskTestPlatform(t)
	if _, err := p.Restrict(Mask{PEs: []bool{true}}); err == nil {
		t.Fatal("undersized mask accepted")
	}
	if _, err := p.Restrict(Mask{Links: make([][]bool, 5)}); err == nil {
		t.Fatal("oversized link mask accepted")
	}
}

func TestMaskEqual(t *testing.T) {
	full := FullMask(3)
	if !(Mask{}).Equal(full, 3) {
		t.Fatal("zero mask and explicit full mask must compare equal")
	}
	dead := FullMask(3)
	dead.PEs[2] = false
	link := FullMask(3)
	link.Links[1][0] = false
	for _, m := range []Mask{dead, link} {
		if m.Equal(full, 3) || full.Equal(m, 3) {
			t.Fatalf("degraded mask %v compares equal to full", m)
		}
	}
	if dead.Equal(link, 3) {
		t.Fatal("a dead PE and a down link compare equal")
	}
}

func TestBuilderRejectsNonFiniteInputs(t *testing.T) {
	cases := []struct {
		name  string
		build func() *Builder
	}{
		{"inf energy", func() *Builder {
			return NewBuilder(1, 2).SetTask(0, []float64{1, 1}, []float64{math.Inf(1), 1})
		}},
		{"nan energy", func() *Builder {
			return NewBuilder(1, 2).SetTask(0, []float64{1, 1}, []float64{math.NaN(), 1})
		}},
		{"negative energy", func() *Builder {
			return NewBuilder(1, 2).SetTask(0, []float64{1, 1}, []float64{-1, 1})
		}},
		{"inf wcet", func() *Builder {
			return NewBuilder(1, 2).SetTask(0, []float64{math.Inf(1), 1}, []float64{1, 1})
		}},
		{"nan wcet", func() *Builder {
			return NewBuilder(1, 2).SetTask(0, []float64{math.NaN(), 1}, []float64{1, 1})
		}},
		{"zero wcet", func() *Builder {
			return NewBuilder(1, 2).SetTask(0, []float64{0, 1}, []float64{1, 1})
		}},
		{"negative wcet", func() *Builder {
			return NewBuilder(1, 2).SetTask(0, []float64{-2, 1}, []float64{1, 1})
		}},
		{"inf bandwidth", func() *Builder {
			return NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 1, math.Inf(1), 0)
		}},
		{"nan bandwidth", func() *Builder {
			return NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 1, math.NaN(), 0)
		}},
		{"zero bandwidth", func() *Builder {
			return NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 1, 0, 0)
		}},
		{"negative bandwidth", func() *Builder {
			return NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 1, -3, 0)
		}},
		{"inf link energy", func() *Builder {
			return NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 1, 1, math.Inf(1))
		}},
		{"nan link energy", func() *Builder {
			return NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 1, 1, math.NaN())
		}},
		{"negative link energy", func() *Builder {
			return NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 1, 1, -0.5)
		}},
	}
	for _, tc := range cases {
		if _, err := tc.build().Build(); err == nil {
			t.Errorf("%s: poisoned input accepted", tc.name)
		}
	}
}
