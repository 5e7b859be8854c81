package nindex

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mistique/internal/diag"
	"mistique/internal/obs"
)

// rankerColumns are the differential inputs for TopKZones, each paired
// with its RowBlock height.
func rankerColumns() map[string]struct {
	vals      []float32
	blockRows int
} {
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	negZero := float32(math.Copysign(0, -1))
	cols := map[string]struct {
		vals      []float32
		blockRows int
	}{}
	add := func(name string, blockRows int, vals []float32) {
		cols[name] = struct {
			vals      []float32
			blockRows int
		}{vals, blockRows}
	}

	// row%977: with blocks of 1024 rows every block's max is 976.
	tied := make([]float32, 5000)
	for i := range tied {
		tied[i] = float32(i % 977)
	}
	add("tied-maxes", 1024, tied)

	zeros := make([]float32, 300)
	for i := range zeros {
		if i%3 == 0 {
			zeros[i] = negZero
		}
	}
	add("signed-zeros", 32, zeros)

	special := testColumn(700, 7) // NaN, ±Inf and normals
	add("nan-inf-mixed", 64, special)

	// Block 1 is all NaN; the last block is short.
	allNaN := testColumn(64*5+13, 11)
	for i := 64; i < 128; i++ {
		allNaN[i] = nan
	}
	allNaN[3], allNaN[200] = inf, -inf
	add("all-nan-block", 64, allNaN)

	onlyNaN := make([]float32, 100)
	for i := range onlyNaN {
		onlyNaN[i] = nan
	}
	add("only-nan", 16, onlyNaN)

	// Block 1 is read first (max 9) and leaves 5 at row 5 as the second
	// best; block 0's max is also 5, and its row 0 ranks before row 5, so
	// a scan that stopped on a tie with the next block's max would miss it.
	add("kth-ties-next-max", 4, []float32{5, 5, 1, 1, 9, 5, 1, 1, 2, 2, 2, 2, 5, 1, 1, 1})

	rng := rand.New(rand.NewSource(3))
	skew := make([]float32, 4096+77)
	for i := range skew {
		skew[i] = float32(rng.NormFloat64()) + float32(i/512) // later blocks rank higher
	}
	add("ascending-blocks", 512, skew)
	return cols
}

func TestTopKZonesMatchesScan(t *testing.T) {
	for name, c := range rankerColumns() {
		n := len(c.vals)
		zones := buildZones(c.vals, c.blockRows)
		ranges := [][2]int{{0, n}, {1, n - 1}, {c.blockRows / 2, n}, {c.blockRows, 2 * c.blockRows}, {c.blockRows - 3, c.blockRows + 5}, {n - 1, n}, {5, 5}}
		for _, rg := range ranges {
			from, to := rg[0], min(rg[1], n)
			for _, k := range []int{0, 1, 2, 3, 10, 100, to - from, to - from + 7} {
				for _, zs := range [][]Zone{zones, nil} {
					var readRows int
					got, err := TopKZones(zs, c.blockRows, from, to, k, func(lo, hi int) ([]float32, error) {
						if lo < from || hi > to || lo >= hi {
							return nil, fmt.Errorf("read [%d,%d) outside [%d,%d)", lo, hi, from, to)
						}
						readRows += hi - lo
						return c.vals[lo:hi], nil
					})
					if err != nil {
						t.Fatalf("%s [%d,%d) k=%d: %v", name, from, to, k, err)
					}
					want := diag.TopK(c.vals[from:to], k)
					if len(got) != len(want) {
						t.Fatalf("%s [%d,%d) k=%d: %d entries, want %d", name, from, to, k, len(got), len(want))
					}
					for i, r := range want {
						wv := c.vals[from+r]
						if got[i].Row != from+r || math.Float32bits(got[i].Value) != math.Float32bits(wv) {
							t.Fatalf("%s [%d,%d) k=%d rank %d: got %+v, want row %d value %v", name, from, to, k, i, got[i], from+r, wv)
						}
					}
					if readRows > to-from {
						t.Fatalf("%s [%d,%d) k=%d: read %d rows of a %d-row range", name, from, to, k, readRows, to-from)
					}
				}
			}
		}
	}
}

// TestTopKZonesPrunes pins that the zone ordering does its job: when the
// top k sit in one block whose min is above every other block's max, only
// that block is read.
func TestTopKZonesPrunes(t *testing.T) {
	c := rankerColumns()["ascending-blocks"]
	vals := append([]float32(nil), c.vals...)
	last := len(vals) / c.blockRows * c.blockRows
	for i := last; i < len(vals); i++ {
		vals[i] = 1000 + float32(i)
	}
	reads := 0
	got, err := TopKZones(buildZones(vals, c.blockRows), c.blockRows, 0, len(vals), 10, func(lo, hi int) ([]float32, error) {
		reads++
		return vals[lo:hi], nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if reads != 1 || got[0].Row != len(vals)-1 {
		t.Fatalf("read %d blocks, top row %d; want 1 block and row %d", reads, got[0].Row, len(vals)-1)
	}
	boom := errors.New("read failed")
	if _, err := TopKZones(nil, 16, 0, 32, 3, func(int, int) ([]float32, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("read error not returned: %v", err)
	}
}

// TestManagerMoved pins the build-only-when-still rule as the engine
// applies it (ask Moved, then Get only when it says no): a first probe
// builds, a probe at a signature other than the previous probe's builds
// and fetches nothing, and a repeat at that signature builds.
func TestManagerMoved(t *testing.T) {
	reg := obs.New()
	m, err := NewManager(ManagerConfig{Dir: t.TempDir(), Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	col := testColumn(200, 5)
	key := Key{Model: "m", Intermediate: "i", Column: "c"}
	fetches := 0
	fetch := func() ([]float32, int, error) {
		fetches++
		return col, 32, nil
	}
	steps := []struct {
		sig           uint32
		moved         bool
		builds, fetch int64
	}{
		{sig: 1, builds: 1, fetch: 1},              // first probe builds
		{sig: 1, builds: 1, fetch: 1},              // still: cache hit
		{sig: 2, moved: true, builds: 1, fetch: 1}, // moved: no fetch, no build
		{sig: 3, moved: true, builds: 1, fetch: 1}, // moved again
		{sig: 3, builds: 2, fetch: 2},              // held still since: builds
		{sig: 3, builds: 2, fetch: 2},              // hit
		{sig: 1, moved: true, builds: 2, fetch: 2}, // back to an old signature is a move too
	}
	for i, st := range steps {
		moved := m.Moved(key, st.sig)
		if moved != st.moved {
			t.Fatalf("step %d (sig %d): moved = %v, want %v", i, st.sig, moved, st.moved)
		}
		if !moved {
			if _, err := m.TopK(key, st.sig, 3, fetch); err != nil {
				t.Fatalf("step %d (sig %d): %v", i, st.sig, err)
			}
		}
		if got := counterVal(reg, "mistique_index_builds_total"); got != st.builds || int64(fetches) != st.fetch {
			t.Fatalf("step %d (sig %d): builds %d fetches %d, want %d and %d", i, st.sig, got, fetches, st.builds, st.fetch)
		}
	}
	if got := counterVal(reg, "mistique_index_moved_total"); got != 3 {
		t.Fatalf("moved probes counted %d, want 3", got)
	}
	// Invalidate forgets the previous probe: the next one is a first probe.
	m.Invalidate(key)
	if m.Moved(key, 9) {
		t.Fatal("first probe after Invalidate counted as a move")
	}
}
