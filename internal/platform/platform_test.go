package platform

import (
	"math"
	"testing"
	"testing/quick"
)

func buildSmall(t *testing.T) *Platform {
	t.Helper()
	p, err := NewBuilder(2, 3).
		SetTask(0, []float64{10, 20, 30}, []float64{5, 4, 3}).
		SetTask(1, []float64{1, 2, 3}, []float64{1, 1, 1}).
		SetAllLinks(2, 0.5).
		Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return p
}

func TestBuilderBasics(t *testing.T) {
	p := buildSmall(t)
	if p.NumTasks() != 2 || p.NumPEs() != 3 {
		t.Fatalf("dims = %d×%d", p.NumTasks(), p.NumPEs())
	}
	if p.WCET(0, 1) != 20 || p.Energy(0, 2) != 3 {
		t.Fatal("WCET/Energy wrong")
	}
	if p.AvgWCET(0) != 20 {
		t.Fatalf("AvgWCET = %v, want 20", p.AvgWCET(0))
	}
	if p.Bandwidth(0, 1) != 2 {
		t.Fatal("Bandwidth wrong")
	}
}

func TestCommCosts(t *testing.T) {
	p := buildSmall(t)
	if got := p.CommTime(10, 0, 1); got != 5 {
		t.Fatalf("CommTime = %v, want 5", got)
	}
	if got := p.CommTime(10, 1, 1); got != 0 {
		t.Fatalf("local CommTime = %v, want 0", got)
	}
	if got := p.CommTime(0, 0, 1); got != 0 {
		t.Fatalf("zero-volume CommTime = %v, want 0", got)
	}
	if got := p.CommEnergy(10, 0, 1); got != 5 {
		t.Fatalf("CommEnergy = %v, want 5", got)
	}
	if got := p.CommEnergy(10, 2, 2); got != 0 {
		t.Fatalf("local CommEnergy = %v, want 0", got)
	}
}

func TestBuilderValidation(t *testing.T) {
	cases := []struct {
		name string
		b    *Builder
	}{
		{"zero tasks", NewBuilder(0, 1)},
		{"zero PEs", NewBuilder(1, 0)},
		{"task out of range", NewBuilder(1, 1).SetTask(5, []float64{1}, []float64{1})},
		{"wrong widths", NewBuilder(1, 2).SetTask(0, []float64{1}, []float64{1, 1})},
		{"zero wcet", NewBuilder(1, 1).SetTask(0, []float64{0}, []float64{1})},
		{"negative energy", NewBuilder(1, 1).SetTask(0, []float64{1}, []float64{-1})},
		{"nan wcet", NewBuilder(1, 1).SetTask(0, []float64{math.NaN()}, []float64{1})},
		{"self link", NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 0, 1, 1)},
		{"zero bandwidth", NewBuilder(1, 2).SetUniformTask(0, 1, 1).SetLink(0, 1, 0, 1)},
		{"missing task", NewBuilder(2, 1).SetUniformTask(0, 1, 1)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := c.b.Build(); err == nil {
				t.Fatalf("want error")
			}
		})
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(1, 1).SetTask(9, []float64{1}, []float64{1})
	// Later valid calls must not clear the error.
	b.SetUniformTask(0, 1, 1)
	if _, err := b.Build(); err == nil {
		t.Fatal("builder error must stick")
	}
}

func TestBuilderConsumed(t *testing.T) {
	b := NewBuilder(1, 1).SetUniformTask(0, 1, 1)
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(); err == nil {
		t.Fatal("second Build must fail")
	}
}

func TestDVFSContinuous(t *testing.T) {
	d := Continuous()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := d.Clamp(0.5); got != 0.5 {
		t.Fatalf("Clamp(0.5) = %v", got)
	}
	if got := d.Clamp(2); got != 1 {
		t.Fatalf("Clamp(2) = %v, want 1", got)
	}
	if got := d.Clamp(0.0001); got != DefaultMinSpeed {
		t.Fatalf("Clamp(0.0001) = %v, want %v", got, DefaultMinSpeed)
	}
	if got := d.Clamp(math.NaN()); got != 1 {
		t.Fatalf("Clamp(NaN) = %v, want 1", got)
	}
	if got := d.ExecTime(10, 0.5); got != 20 {
		t.Fatalf("ExecTime = %v, want 20", got)
	}
	if got := d.ExecEnergy(8, 0.5); got != 2 {
		t.Fatalf("ExecEnergy = %v, want 2", got)
	}
	if got := d.SpeedForTime(10, 40); got != 0.25 {
		t.Fatalf("SpeedForTime = %v, want 0.25", got)
	}
	if got := d.SpeedForTime(10, 0); got != 1 {
		t.Fatalf("SpeedForTime(zero budget) = %v, want 1", got)
	}
}

func TestDVFSDiscrete(t *testing.T) {
	d := Discrete(1, 0.25, 0.5, 0.75)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// Rounds up for deadline safety.
	if got := d.Clamp(0.3); got != 0.5 {
		t.Fatalf("Clamp(0.3) = %v, want 0.5", got)
	}
	if got := d.Clamp(0.75); got != 0.75 {
		t.Fatalf("Clamp(0.75) = %v, want 0.75", got)
	}
	if got := d.Clamp(0.8); got != 1 {
		t.Fatalf("Clamp(0.8) = %v, want 1", got)
	}
	if got := d.Clamp(0.01); got != 0.25 {
		t.Fatalf("Clamp(0.01) = %v, want 0.25", got)
	}
}

func TestDVFSValidation(t *testing.T) {
	bad := []DVFS{
		{MinSpeed: -0.1},
		{MinSpeed: 1.5},
		Discrete(0.5, 0.75), // missing full speed
		Discrete(0, 1),
		Discrete(1.5, 1),
	}
	for i, d := range bad {
		if err := d.Validate(); err == nil {
			t.Fatalf("case %d: want validation error", i)
		}
	}
}

// Property: for any clamped speed, energy decreases and time increases
// monotonically as the speed drops, and energy·time ≥ wcet·E·s (sanity of
// the quadratic model).
func TestDVFSMonotonicityProperty(t *testing.T) {
	d := Continuous()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	f := func(a, b float64) bool {
		sa := d.Clamp(math.Abs(a))
		sb := d.Clamp(math.Abs(b))
		if sa > sb {
			sa, sb = sb, sa
		}
		const wcet, e = 10, 4
		return d.ExecTime(wcet, sa) >= d.ExecTime(wcet, sb) &&
			d.ExecEnergy(e, sa) <= d.ExecEnergy(e, sb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
