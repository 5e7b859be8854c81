package sample

import (
	"math"
	"reflect"
	"sync"
	"testing"
)

// selectionSample holds the differential inputs for first-probe selection
// against the memoized rank order: values tied across many rows (row%977
// scaled down so they repeat inside the reservoir), ±0, NaN, ±Inf, and a
// column with no finite value at all.
func selectionSample(t *testing.T) *Sample {
	t.Helper()
	negZero := float32(math.Copysign(0, -1))
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	b := NewBuilder([]string{"tied", "zeros", "special", "nonfinite"}, Config{Cap: 300, Seed: 9})
	rows := make([][]float32, 2000)
	for i := range rows {
		zero := float32(0)
		if i%3 == 0 {
			zero = negZero
		}
		special := float32(i%17) - 8
		switch i % 11 {
		case 0:
			special = nan
		case 1:
			special = inf
		case 2:
			special = -inf
		case 3:
			special = negZero
		}
		nonfinite := nan
		if i%2 == 0 {
			nonfinite = -inf
		}
		rows[i] = []float32{float32(i%977) / 100, zero, special, nonfinite}
	}
	b.AddRows(rows)
	return b.Snapshot()
}

func sameRowValues(a, b []RowValue) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Row != b[i].Row || math.Float32bits(a[i].Value) != math.Float32bits(b[i].Value) {
			return false
		}
	}
	return true
}

func TestSelectionMatchesMemoizedRank(t *testing.T) {
	base := selectionSample(t)
	for col := range base.Cols {
		for _, k := range []int{0, 1, 5, 37, 299, 300, 1000} {
			for _, largest := range []bool{true, false} {
				s := base.clone()
				sel, selBound := s.TopK(col, k, largest) // first probe: selection
				memo, memoBound := s.TopK(col, k, largest)
				if _, _, ok := s.memoRank(col); !ok {
					t.Fatal("second probe did not memoize the rank order")
				}
				if !sameRowValues(sel, memo) || selBound != memoBound {
					t.Fatalf("%s k=%d largest=%v: selection %v (bound %v) != memo %v (bound %v)",
						base.Cols[col], k, largest, sel, selBound, memo, memoBound)
				}
			}
		}
		for _, q := range []float64{0, 0.01, 0.25, 0.5, 0.77, 0.99, 1} {
			s := base.clone()
			selV, selB := s.Quantile(col, q)
			memoV, memoB := s.Quantile(col, q)
			if math.Float32bits(selV) != math.Float32bits(memoV) || selB != memoB {
				t.Fatalf("%s q=%v: selection %v (bound %v) != memo %v (bound %v)", base.Cols[col], q, selV, selB, memoV, memoB)
			}
		}
	}
}

func TestSelectNthMatchesSort(t *testing.T) {
	vals := []float32{5, 3, 3, 9, 1, 1, 1, 7, 3, 0, 2, 8, 8, 8, 4}
	less := func(a, b int32) bool {
		if vals[a] != vals[b] {
			return vals[a] < vals[b]
		}
		return a < b
	}
	for n := range vals {
		idx := make([]int32, len(vals))
		for i := range idx {
			idx[i] = int32(len(vals) - 1 - i)
		}
		selectNth(idx, n, less)
		// idx[n] has exactly n elements ranked before it.
		before := 0
		for i := range vals {
			if less(int32(i), idx[n]) {
				before++
			}
		}
		if before != n {
			t.Fatalf("n=%d: selected %d, which has %d elements before it", n, idx[n], before)
		}
	}
}

func TestSnapshotColsProjects(t *testing.T) {
	b := NewBuilder([]string{"y", "a", "b"}, Config{Cap: 16, StratumCap: 4, StratifyColumn: "y"})
	for i := 0; i < 100; i++ {
		b.Add([]float32{float32(i % 3), float32(i), -float32(i)})
	}
	full := b.Snapshot()
	part := b.SnapshotCols([]string{"b", "nope", "y"})
	if !reflect.DeepEqual(part.Cols, []string{"b", "y"}) {
		t.Fatalf("projected columns %v", part.Cols)
	}
	if part.Seen != full.Seen || !reflect.DeepEqual(part.RowIDs, full.RowIDs) {
		t.Fatal("projection changed the sampled rows")
	}
	for r := 0; r < full.Rows(); r++ {
		if part.Value(r, 0) != full.Value(r, 2) || part.Value(r, 1) != full.Value(r, 0) {
			t.Fatalf("row %d values differ from the full snapshot", r)
		}
	}
	if part.Stats[0] != full.Stats[2] || part.Stats[1] != full.Stats[0] {
		t.Fatal("projected stats differ")
	}
	pc, err := part.Confusion(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := full.Confusion(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(pc, fc) {
		t.Fatalf("stratified confusion differs on the projection:\n%+v\n%+v", pc, fc)
	}
}

// TestSnapshotsSeeWholeBatches runs snapshots against AddRows: each
// snapshot covers a whole number of batches, never part of one.
func TestSnapshotsSeeWholeBatches(t *testing.T) {
	const batch, batches = 37, 200
	b := NewBuilder([]string{"a", "b"}, Config{Cap: 64})
	rows := make([][]float32, batch)
	for i := range rows {
		rows[i] = []float32{float32(i), 1}
	}
	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < batches; i++ {
			b.AddRows(rows)
		}
	}()
	for _, snap := range []func() *Sample{b.Snapshot, func() *Sample { return b.SnapshotCols([]string{"b"}) }} {
		wg.Add(1)
		go func(snap func() *Sample) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if seen := snap().Seen; seen%batch != 0 {
					t.Errorf("snapshot saw %d rows, not a whole number of %d-row batches", seen, batch)
					return
				}
			}
		}(snap)
	}
	wg.Wait()
	if b.Seen() != batch*batches {
		t.Fatalf("seen %d rows, want %d", b.Seen(), batch*batches)
	}
}
