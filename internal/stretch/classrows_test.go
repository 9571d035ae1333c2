package stretch

import (
	"cmp"
	"fmt"
	"slices"
	"testing"

	"ctgdvfs/internal/ctg"
)

// buildClassRowsBySort is the sort-based class-row builder, the oracle of
// classRows.build: the tasks with a fork are sorted by their sets and each
// run of equal sets gets one row, the scenarios sorted by their outcomes on
// the set and each run of equal outcomes one class.
func buildClassRowsBySort(assign [][]int, n int, set func(ctg.TaskID) forkSet) classRows {
	ns := len(assign)
	var c classRows
	c.row, c.n = make([]int32, n), make([]int32, n)
	var tasks []ctg.TaskID
	for t := range c.row {
		c.row[t] = -1
		if !set(ctg.TaskID(t)).empty() {
			tasks = append(tasks, ctg.TaskID(t))
		}
	}
	bySet := func(x, y ctg.TaskID) int { return slices.Compare(set(x), set(y)) }
	slices.SortFunc(tasks, bySet)
	var forks []int
	idx := make([]int, ns)
	byOutcomes := func(x, y int) int {
		for _, fi := range forks {
			if c := cmp.Compare(assign[x][fi], assign[y][fi]); c != 0 {
				return c
			}
		}
		return 0
	}
	for i, t := range tasks {
		if i > 0 && bySet(tasks[i-1], t) == 0 {
			c.row[t], c.n[t] = c.row[tasks[i-1]], c.n[tasks[i-1]]
			continue
		}
		forks = forks[:0]
		set(t).forEach(func(fi int) { forks = append(forks, fi) })
		for si := range idx {
			idx[si] = si
		}
		slices.SortFunc(idx, byOutcomes)
		off := len(c.cls)
		c.cls = append(c.cls, make([]uint16, ns)...)
		id := -1
		for k, si := range idx {
			if k == 0 || byOutcomes(idx[k-1], si) != 0 {
				id++
			}
			c.cls[off+si] = uint16(id)
		}
		c.row[t], c.n[t] = int32(off), int32(id+1)
	}
	return c
}

// classRowsDiffer reports where got differs from the oracle's want: a task
// with a row in one and none in the other, another class count or other
// ids, or tasks sharing a row in one but not in the other. Row offsets may
// differ, as rows come in another order.
func classRowsDiffer(want, got *classRows, ns int) error {
	if len(got.row) != len(want.row) || len(got.cls) != len(want.cls) {
		return fmt.Errorf("%d tasks, %d class ids; oracle %d, %d", len(got.row), len(got.cls), len(want.row), len(want.cls))
	}
	rowOf := map[int32]int32{} // got's offset -> want's
	for t := range want.row {
		w, g := want.row[t], got.row[t]
		if (w < 0) != (g < 0) || got.n[t] != want.n[t] {
			return fmt.Errorf("task %d: row %d with %d classes; oracle %d with %d", t, g, got.n[t], w, want.n[t])
		}
		if w < 0 {
			continue
		}
		if o, ok := rowOf[g]; ok && o != w {
			return fmt.Errorf("task %d: shares row %d, the oracle's rows %d and %d differ", t, g, o, w)
		}
		rowOf[g] = w
		if !slices.Equal(got.cls[g:int(g)+ns], want.cls[w:int(w)+ns]) {
			return fmt.Errorf("task %d: ids %v; oracle %v", t, got.cls[g:int(g)+ns], want.cls[w:int(w)+ns])
		}
	}
	return nil
}

// classRowsVsOracle builds both halves' class rows of d with the
// builder and with the sort oracle and reports the first difference.
func classRowsVsOracle(d *dagModel) error {
	d.classes()
	a := d.s.A
	assign := make([][]int, a.NumScenarios())
	for si := range assign {
		assign[si] = a.Scenario(si).Assign
	}
	for half, set := range []func(ctg.TaskID) forkSet{d.forksAbove, d.forksBelow} {
		want := buildClassRowsBySort(assign, len(d.exec), set)
		if err := classRowsDiffer(&want, []*classRows{&d.up, &d.down}[half], len(assign)); err != nil {
			return fmt.Errorf("%s half: %w", []string{"up", "down"}[half], err)
		}
	}
	return nil
}

// FuzzClassRows feeds random outcome tables (scenarios × forks, unassigned
// outcomes included) and random fork sets to the builder and to the sort
// oracle, which must agree.
func FuzzClassRows(f *testing.F) {
	f.Add(uint8(3), uint8(2), uint8(4), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add(uint8(8), uint8(70), uint8(6), []byte{255, 0, 17, 3, 200, 1, 64, 9})
	f.Add(uint8(40), uint8(130), uint8(3), []byte{1})
	f.Fuzz(func(t *testing.T, scenarios, forks, tasks uint8, data []byte) {
		ns, nf, n := 1+int(scenarios)%64, 1+int(forks)%140, 1+int(tasks)%16
		// byteAt cycles through data, each round xor-ed with its number,
		// so that a short input still fills a large table.
		next := 0
		byteAt := func() int {
			if len(data) == 0 {
				return 0
			}
			i := next
			next++
			return int(data[i%len(data)]) ^ i/len(data)
		}
		assign := make([][]int, ns)
		for si := range assign {
			assign[si] = make([]int, nf)
			for fi := range assign[si] {
				assign[si][fi] = byteAt()%4 - 1 // OutcomeUnassigned or 0..2
			}
		}
		fw := (nf + 63) / 64
		sets := make([]uint64, n*fw)
		for t := 0; t < n; t++ {
			// Some tasks repeat an earlier set, so rows get shared.
			if t > 0 && byteAt()%3 == 0 {
				u := byteAt() % t
				copy(sets[t*fw:(t+1)*fw], sets[u*fw:(u+1)*fw])
				continue
			}
			density := byteAt() % 5
			for fi := 0; fi < nf; fi++ {
				if byteAt()%5 < density {
					sets[t*fw+fi/64] |= 1 << (fi % 64)
				}
			}
		}
		set := func(t ctg.TaskID) forkSet { return sets[int(t)*fw : (int(t)+1)*fw] }
		want := buildClassRowsBySort(assign, n, set)
		var got classRows
		got.build(assign, n, set)
		if err := classRowsDiffer(&want, &got, ns); err != nil {
			t.Fatalf("%d scenarios, %d forks, %d tasks: %v", ns, nf, n, err)
		}
	})
}
