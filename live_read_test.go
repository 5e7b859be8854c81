package mistique

import (
	"context"
	"math"
	"sync"
	"testing"

	"mistique/internal/cost"
	"mistique/internal/diag"
	"mistique/internal/sample"
)

// checkTopKAgainstScan compares a TOPK answer over global rows [from, to)
// with diag.TopK over an exact read of the column.
func checkTopKAgainstScan(t *testing.T, s *System, got []TopKEntry, column string, k, from, to int) {
	t.Helper()
	col, err := s.GetColumn("live", "acts", column, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := diag.TopK(col[from:to], k)
	if len(got) != len(want) {
		t.Fatalf("topk [%d,%d) k=%d: %d entries, want %d", from, to, k, len(got), len(want))
	}
	for i, r := range want {
		if got[i].Row != from+r || math.Float32bits(got[i].Value) != math.Float32bits(col[from+r]) {
			t.Fatalf("topk [%d,%d) k=%d rank %d: %+v, want row %d value %v", from, to, k, i, got[i], from+r, col[from+r])
		}
	}
}

// TestTopKOnMovingStream pins the build-only-when-still rule end to end:
// on a stream whose signature moves between probes, TopK answers from the
// zone-pruned ranker without building, a repeat probe of the unchanged
// column builds, and every answer — ranged ones included — equals the
// full scan. streamVal's row%977 values tie every block's max.
func TestTopKOnMovingStream(t *testing.T) {
	s := openSys(t, Config{RowBlockRows: 128, Sample: sample.Config{Cap: 256}})
	cols := []string{"v", "w"}
	counter := func(name string) int64 { return s.Metrics().Counters[name] }

	ingestStream(t, s, "live", "acts", cols, 0, 1300, 50)
	rows := 1280 // ten cut blocks; the tail waits for a Flush
	got, err := s.TopK("live", "acts", "v", 10)
	if err != nil {
		t.Fatal(err)
	}
	checkTopKAgainstScan(t, s, got, "v", 10, 0, rows)
	if counter("mistique_index_builds_total") != 1 {
		t.Fatal("first probe did not build")
	}

	for round := 1; round <= 4; round++ {
		ingestStream(t, s, "live", "acts", cols, int64(1300*round), 1300, 50)
		if round%2 == 0 {
			if err := s.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		it, _ := s.Metadata().IntermSnapshot("live", "acts")
		rows = it.Rows
		builds, moved := counter("mistique_index_builds_total"), counter("mistique_index_moved_total")
		got, err := s.TopK("live", "acts", "v", 10)
		if err != nil {
			t.Fatal(err)
		}
		checkTopKAgainstScan(t, s, got, "v", 10, 0, rows)
		if counter("mistique_index_builds_total") != builds || counter("mistique_index_moved_total") != moved+1 {
			t.Fatalf("round %d: a probe of a moved column built an index", round)
		}
		// The column held still since that probe: this one builds.
		got, err = s.TopK("live", "acts", "v", rows+5)
		if err != nil {
			t.Fatal(err)
		}
		checkTopKAgainstScan(t, s, got, "v", rows+5, 0, rows)
		if counter("mistique_index_builds_total") != builds+1 {
			t.Fatalf("round %d: a probe of a still column did not build", round)
		}

		for _, rg := range [][2]int{{1, rows - 1}, {127, 129}, {128, 256}, {300, 1000}, {rows - 5, rows}, {64, 64}} {
			for _, k := range []int{1, 10, 977, rg[1] - rg[0] + 3} {
				got, err := s.TopKRangeCtx(context.Background(), "live", "acts", "w", k, rg[0], rg[1])
				if err != nil {
					t.Fatal(err)
				}
				checkTopKAgainstScan(t, s, got, "w", k, rg[0], rg[1])
			}
		}
	}
}

// TestLiveReadsDuringIngest runs exact and sampled reads against one
// stream while a writer ingests and flushes it (run it under -race). Every
// answer must be consistent with the rows it saw, and a sampled read sees
// whole batches only.
func TestLiveReadsDuringIngest(t *testing.T) {
	const batch, batches = 40, 120
	s := openSys(t, Config{RowBlockRows: 128, Sample: sample.Config{Cap: 200}})
	cols := []string{"v", "w"}
	ingestStream(t, s, "live", "acts", cols, 0, 4*batch, batch)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for b := int64(4); b < batches; b++ {
			rows := make([][]float32, batch)
			for i := range rows {
				row := b*batch + int64(i)
				rows[i] = []float32{streamVal(row, 0), streamVal(row, 1)}
			}
			if _, err := s.IngestRows("live", "acts", cols, rows); err != nil {
				t.Errorf("ingest: %v", err)
				return
			}
			if b%7 == 0 {
				if err := s.Flush(); err != nil {
					t.Errorf("flush: %v", err)
					return
				}
			}
		}
	}()

	ranked := func(what string, entries []TopKEntry) {
		for i, e := range entries {
			if e.Value != streamVal(int64(e.Row), 0) {
				t.Errorf("%s: row %d = %v, want %v", what, e.Row, e.Value, streamVal(int64(e.Row), 0))
				return
			}
			if i > 0 && !diag.RankLess(entries[i-1].Value, e.Value, entries[i-1].Row, e.Row) {
				t.Errorf("%s: ranks %d and %d out of order", what, i-1, i)
				return
			}
		}
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				top, err := s.TopK("live", "acts", "v", 10)
				if err != nil {
					t.Errorf("topk: %v", err)
					return
				}
				ranked("topk", top)
				from := (r*37 + i*53) % 300
				part, err := s.TopKRangeCtx(ctx, "live", "acts", "v", 10, from, from+200)
				if err != nil {
					t.Errorf("ranged topk: %v", err)
					return
				}
				ranked("ranged topk", part)
				d, err := s.ColDist("live", "acts", "v", 0)
				if err != nil || d.Strategy != cost.Sample {
					t.Errorf("coldist: %v (%v)", err, d)
					return
				}
				if d.Rows%batch != 0 {
					t.Errorf("coldist saw %d rows, not whole %d-row batches", d.Rows, batch)
					return
				}
				a, err := s.ApproxTopK("live", "acts", "w", 5, 0)
				if err != nil {
					t.Errorf("approx topk: %v", err)
					return
				}
				for _, e := range a.Entries {
					if e.Value != streamVal(e.Row, 1) {
						t.Errorf("approx topk: row %d = %v, want %v", e.Row, e.Value, streamVal(e.Row, 1))
						return
					}
				}
			}
		}(r)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := s.TopK("live", "acts", "v", 25)
	if err != nil {
		t.Fatal(err)
	}
	checkTopKAgainstScan(t, s, got, "v", 25, 0, batch*batches)
}
