package colstore

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// maxDeltaDepthWalk is the whole-store walk MaxDeltaDepth used to run on
// every call, kept as the oracle the resident depth histogram must agree
// with.
func maxDeltaDepthWalk(s *Store, model, interm string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	maxDepth := 0
	for k, id := range s.columns {
		if k.Model != model || k.Intermediate != interm {
			continue
		}
		if d, ok := s.deltas[id]; ok && d.Depth > maxDepth {
			maxDepth = d.Depth
		}
	}
	return maxDepth
}

// depthsWalk recounts the whole depth histogram the way rebuildDepthsLocked
// would, without touching the store's own copy.
func depthsWalk(s *Store) map[intermKey][]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[intermKey][]int)
	for k, id := range s.columns {
		d := s.deltas[id].Depth
		if d <= 0 {
			continue
		}
		ik := intermKey{k.Model, k.Intermediate}
		h := out[ik]
		for len(h) <= d {
			h = append(h, 0)
		}
		h[d]++
		out[ik] = h
	}
	return out
}

// TestMaxDeltaDepthMatchesWalk runs seeded random sequences of every
// operation that changes the column map or the delta registry — plain,
// delta and replacing puts, deletes, Compact (with chain collapse after a
// tighter DeltaMaxDepth), Flush, reopen, and reopen with a quarantined
// delta base — and checks after every step that MaxDeltaDepth equals the
// whole-store walk for every intermediate, and that the histogram equals
// a fresh recount.
func TestMaxDeltaDepthMatchesWalk(t *testing.T) {
	models := []string{"m0", "m1", "m2", "m3"}
	interms := []string{"a", "b"}
	cols := []string{"c0", "c1", "c2"}
	steps := 250
	if testing.Short() {
		steps = 80
	}
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			cfg := Config{MemBudgetBytes: 24 << 10, PartitionTargetBytes: 8 << 10}
			s, err := Open(dir, cfg)
			if err != nil {
				t.Fatal(err)
			}
			known := make(map[ColumnKey][]float32)
			randKey := func() ColumnKey {
				return key(models[rng.Intn(len(models))], interms[rng.Intn(len(interms))],
					cols[rng.Intn(len(cols))], rng.Intn(2))
			}
			reopen := func() {
				cfg.DeltaMaxDepth = []int{0, 1, 2, -1}[rng.Intn(4)]
				if s, err = Open(dir, cfg); err != nil {
					t.Fatal(err)
				}
			}
			var op string
			for step := 0; step < steps; step++ {
				k := randKey()
				_, existed := s.columns[k]
				var perr error
				switch r := rng.Intn(100); {
				case r < 30:
					op = "put"
					vals := randCol(256, rng.Int63n(40)) // small seed space: dedup hits
					if _, perr = s.PutColumn(k, vals, nil); perr == nil {
						known[k] = vals
					}
				case r < 60:
					op = "delta"
					parent := k
					parent.Model = models[rng.Intn(len(models))]
					base, ok := known[parent]
					if !ok {
						base = randCol(256, rng.Int63())
					}
					vals := perturbCol(base, rng.Int63n(1000)+1, 0.05)
					if _, perr = s.PutColumnDelta(k, vals, nil, parent); perr == nil {
						known[k] = vals
					}
				case r < 70:
					op = "replace"
					vals := randCol(256, rng.Int63())
					if _, perr = s.PutColumnReplace(k, vals, nil); perr == nil {
						known[k] = vals
					}
				case r < 75:
					op = "delete-columns"
					s.DeleteColumns(k.Model, k.Intermediate)
				case r < 78:
					op = "delete-model"
					s.DeleteModel(k.Model)
				case r < 86:
					op = "compact"
					if _, _, err := s.Compact(); err != nil {
						t.Fatalf("step %d compact: %v", step, err)
					}
				case r < 94:
					op = "flush"
					if err := s.Flush(); err != nil {
						t.Fatalf("step %d flush: %v", step, err)
					}
				case r < 98:
					op = "reopen"
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					reopen()
				default:
					op = "reopen-quarantined"
					if err := s.Flush(); err != nil {
						t.Fatal(err)
					}
					// Prefer a partition holding a delta base, so the
					// quarantine takes whole chains down with it.
					onDisk := func(pid int64) bool {
						p, ok := s.parts[pid]
						return ok && p.onDisk && !p.lost
					}
					pid := int64(-1)
					for _, d := range s.deltas {
						if onDisk(d.Base.Partition) {
							pid = d.Base.Partition
							break
						}
					}
					for id := range s.parts {
						if pid < 0 && onDisk(id) {
							pid = id
						}
					}
					if pid >= 0 {
						corruptOneByte(t, s.partPathGen(pid, s.parts[pid].gen))
					}
					reopen()
				}
				// A put to a key already mapped to different content is a
				// caller error the store rejects without changing anything;
				// anything else failing is a test failure.
				if perr != nil && !(existed && !errors.Is(perr, ErrUnavailable)) {
					t.Fatalf("step %d %s %s: %v", step, op, k, perr)
				}
				for _, m := range models {
					for _, it := range interms {
						if got, want := s.MaxDeltaDepth(m, it), maxDeltaDepthWalk(s, m, it); got != want {
							t.Fatalf("step %d after %s: MaxDeltaDepth(%s, %s) = %d, walk says %d", step, op, m, it, got, want)
						}
					}
				}
				want := depthsWalk(s)
				s.mu.Lock()
				got := s.depths
				same := reflect.DeepEqual(got, want) || len(got) == 0 && len(want) == 0
				s.mu.Unlock()
				if !same {
					t.Fatalf("step %d after %s: depth histogram %v, recount %v", step, op, got, want)
				}
			}
			if deltas := s.Stats().DeltaChunks; deltas == 0 {
				t.Errorf("sequence stored no delta chunk; the oracle saw no chain")
			}
		})
	}
}

// BenchmarkMaxDeltaDepth prices the cost model's chain-depth lookup at two
// store sizes; it must not grow with the number of stored columns.
func BenchmarkMaxDeltaDepth(b *testing.B) {
	for _, nKeys := range []int{1 << 10, 1 << 16} {
		s, err := Open(b.TempDir(), Config{Mode: ModeArrival, DisableApproxDedup: true})
		if err != nil {
			b.Fatal(err)
		}
		// 64 intermediates of one model version; every eighth column is a
		// delta against the previous version's column.
		vals := randCol(16, 1)
		for i := 0; i < nKeys; i++ {
			k := key("v1", fmt.Sprintf("i%d", i%64), fmt.Sprintf("c%d", i/64), 0)
			child := perturbCol(vals, int64(i+1), 0.1)
			if i%8 != 0 {
				if _, err := s.PutColumn(k, child, nil); err != nil {
					b.Fatal(err)
				}
				continue
			}
			parent := k
			parent.Model = "v0"
			if _, err := s.PutColumn(parent, vals, nil); err != nil {
				b.Fatal(err)
			}
			if _, err := s.PutColumnDelta(k, child, nil, parent); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("keys=%d", nKeys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.MaxDeltaDepth("v1", "i7")
			}
		})
	}
}
