package mistique

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"mistique/internal/colstore"
	"mistique/internal/diag"
	"mistique/internal/nindex"
	"mistique/internal/tensor"
)

// This file is the engine's neuron-centric query surface: TOPK ("which
// examples activate neuron j the most"), index-accelerated FilterRows, and
// block-pruned KNN, all backed by the lazily built per-column indexes of
// internal/nindex. Every path has a full-scan twin in internal/diag ranked
// by the same pinned comparators (diag.RankLess / diag.DistLess), and the
// differential harness in internal/nindex/oracletest plus the root
// TestIndexScanParity* tests hold the two byte-identical.

// ErrUnknownColumn marks a column-level query naming a column the
// intermediate does not have.
var ErrUnknownColumn = errors.New("unknown column")

// IndexConfig controls the neuron-centric diagnostic indexes. Zero values
// select defaults; the indexes are on unless Disable is set.
type IndexConfig struct {
	// Disable turns the index layer off entirely: TOPK answers by the
	// zone-pruned ranker, FilterRows by zone-map scans and KNN by a full
	// scan.
	Disable bool
	// MemBudgetBytes caps resident index bytes before LRU eviction
	// (default 64 MiB). Evicted indexes reload from disk on next probe.
	MemBudgetBytes int64
	// SegmentEntries is the priority-list segment length (default 1024):
	// a TOPK(k) decodes ceil(k/SegmentEntries) segments.
	SegmentEntries int
	// HistogramBins is the per-column equi-depth histogram resolution
	// (default 64).
	HistogramBins int
}

// TopKEntry is one row of a TOPK answer, in rank order (value descending,
// NaN last, ascending row id on ties).
type TopKEntry struct {
	Row   int
	Value float32
}

// Neighbor is one row of a KNN answer, in rank order (distance ascending,
// NaN last, ascending row id on ties).
type Neighbor struct {
	Row  int
	Dist float64
}

// TopK returns the k rows with the highest values in a column of a
// materialized intermediate — "which inputs activate this neuron the most"
// (the DeepEverest query class). The first call against a column builds
// its index; later calls decode only the prefix segments covering k rows.
func (s *System) TopK(model, interm, column string, k int) ([]TopKEntry, error) {
	return s.TopKCtx(context.Background(), model, interm, column, k)
}

// TopKCtx is TopK under a context, honored at entry, inside the column
// fetch that backs an index build and between the ranker's block reads.
// A column whose physical signature moved since its previous probe (a
// live stream that cut a block in between) gets no index build: the
// zone-pruned ranker answers it instead, with the same result.
func (s *System) TopKCtx(ctx context.Context, model, interm, column string, k int) ([]TopKEntry, error) {
	it, err := s.columnQueryTarget(ctx, model, interm, column)
	if err != nil {
		return nil, err
	}
	defer s.metrics.queryTopKSeconds.Time()()
	if s.nidx != nil {
		key := indexKey(model, interm, column)
		if sig, serr := s.store.ColumnSignature(model, interm, column); serr == nil && !s.nidx.Moved(key, sig) {
			fetch := s.columnFetcher(ctx, model, interm, column, it.Rows)
			entries, terr := s.nidx.TopK(key, sig, k, fetch)
			if terr == nil {
				return topKEntries(entries), nil
			}
			if errors.Is(terr, context.Canceled) || errors.Is(terr, context.DeadlineExceeded) {
				return nil, terr
			}
		}
	}
	// No index answer (indexes disabled, no signature, a failed probe, or
	// a column that moved since its previous probe): rank from the zones.
	return s.topKByZones(ctx, model, interm, column, k, 0, it.Rows)
}

// TopKRangeCtx ranks only global rows [from, to) of a column, in the same
// pinned diag.RankLess order as TopKCtx, returning global row ids. This is
// the shard-local TOPK probe behind the cluster router's scatter-gather
// (internal/cluster): each shard ranks the row-blocks it owns, and because
// every path uses the one comparator, merging per-block candidate lists
// with RankLess again reproduces the single-node answer bit for bit.
// from <= 0 means row 0; to <= 0 or past the end means the row count. The
// full range delegates to TopKCtx, which is index-accelerated; a partial
// range is answered by the zone-pruned ranker.
func (s *System) TopKRangeCtx(ctx context.Context, model, interm, column string, k, from, to int) ([]TopKEntry, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	it, ok := s.meta.IntermSnapshot(model, interm)
	if !ok {
		return nil, fmt.Errorf("mistique: %w %s.%s", ErrUnknownIntermediate, model, interm)
	}
	if from < 0 {
		from = 0
	}
	if to <= 0 || to > it.Rows {
		to = it.Rows
	}
	if from > to {
		from = to
	}
	if from == 0 && to == it.Rows {
		return s.TopKCtx(ctx, model, interm, column, k)
	}
	if _, err := s.columnQueryTarget(ctx, model, interm, column); err != nil {
		return nil, err
	}
	defer s.metrics.queryTopKSeconds.Time()()
	return s.topKByZones(ctx, model, interm, column, k, from, to)
}

// topKByZones ranks rows [from, to) of a column with nindex.TopKZones,
// reading RowBlocks in descending zone-max order until no unread block
// can place a row in the top k.
func (s *System) topKByZones(ctx context.Context, model, interm, column string, k, from, to int) ([]TopKEntry, error) {
	// A column whose zones cannot be listed gets none: every block then
	// counts as unprunable, and the reads below heal or report the loss.
	zs, _ := s.store.ColumnZones(model, interm, column)
	entries, err := nindex.TopKZones(nindexZones(zs), s.cfg.RowBlockRows, from, to, k, func(lo, hi int) ([]float32, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return s.readColumnRange(ctx, model, interm, column, lo, hi)
	})
	if err != nil {
		return nil, err
	}
	return topKEntries(entries), nil
}

func topKEntries(entries []nindex.Entry) []TopKEntry {
	out := make([]TopKEntry, len(entries))
	for i, e := range entries {
		out[i] = TopKEntry{Row: e.Row, Value: e.Value}
	}
	return out
}

// nindexZones converts the store's per-block zone summaries to the index
// package's form.
func nindexZones(zs []colstore.ZoneInfo) []nindex.Zone {
	out := make([]nindex.Zone, len(zs))
	for i, z := range zs {
		out[i] = nindex.Zone{Min: z.Min, Max: z.Max, Count: z.Count}
	}
	return out
}

// KNN returns the k rows of a materialized intermediate nearest to row
// queryRow by Euclidean distance over all columns, excluding the query row
// itself. Per-block zone bounds order the blocks by a sound lower bound on
// any member row's distance, so blocks that cannot contribute are never
// read; every returned distance is exact (re-verified on real values).
func (s *System) KNN(model, interm string, queryRow, k int) ([]Neighbor, error) {
	return s.KNNCtx(context.Background(), model, interm, queryRow, k)
}

// KNNCtx is KNN under a context; per-block reads check ctx.
func (s *System) KNNCtx(ctx context.Context, model, interm string, queryRow, k int) ([]Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	it, ok := s.meta.IntermSnapshot(model, interm)
	if !ok {
		return nil, fmt.Errorf("mistique: %w %s.%s", ErrUnknownIntermediate, model, interm)
	}
	if !it.Materialized {
		return nil, fmt.Errorf("mistique: %s.%s %w; KNN needs stored chunks", model, interm, ErrNotMaterialized)
	}
	if queryRow < 0 || queryRow >= it.Rows {
		return nil, fmt.Errorf("mistique: KNN query row %d outside [0, %d)", queryRow, it.Rows)
	}
	if _, err := s.meta.RecordQuery(model, interm); err != nil {
		return nil, err
	}
	defer s.metrics.queryKNNSeconds.Time()()
	cols := it.Columns
	qm, err := s.readRowRange(ctx, model, interm, cols, queryRow, queryRow+1)
	if err != nil {
		return nil, err
	}
	query := qm.Row(0)
	if s.nidx != nil {
		if out, kerr := s.knnPruned(ctx, model, interm, cols, query, queryRow, it.Rows, k); kerr == nil {
			return out, nil
		} else if errors.Is(kerr, context.Canceled) || errors.Is(kerr, context.DeadlineExceeded) {
			return nil, kerr
		}
	}
	// Full-scan twin.
	x, err := s.readRowRange(ctx, model, interm, cols, 0, it.Rows)
	if err != nil {
		return nil, err
	}
	ranked := diag.KNN(x, query, k, queryRow)
	out := make([]Neighbor, len(ranked))
	for i, r := range ranked {
		out[i] = Neighbor{Row: r, Dist: tensor.L2Dist(x.Row(r), query)}
	}
	return out, nil
}

// knnPruned answers KNN by scanning RowBlocks in ascending order of their
// zone-derived distance lower bound and stopping once the k-th candidate
// distance strictly beats every remaining block's bound. The bound obeys
// lb ≤ tensor.L2Dist for every row in the block (see nindex.PlanKNN), and
// pruning requires strict excess, so boundary ties survive and the result
// equals the full scan under diag.DistLess exactly.
func (s *System) knnPruned(ctx context.Context, model, interm string, cols []string, query []float32, queryRow, rows, k int) ([]Neighbor, error) {
	if k < 0 {
		k = 0
	}
	if k > rows-1 {
		k = rows - 1
	}
	if k <= 0 {
		return []Neighbor{}, nil
	}
	colZones := make([][]nindex.Zone, len(cols))
	for j, c := range cols {
		zs, err := s.store.ColumnZones(model, interm, c)
		if err != nil {
			return nil, err
		}
		colZones[j] = nindexZones(zs)
	}
	plan := nindex.PlanKNN(query, colZones)
	blockRows := s.cfg.RowBlockRows
	cands := make([]Neighbor, 0, k+blockRows)
	kth := math.NaN()
	for _, bb := range plan {
		if len(cands) >= k && bb.LB > kth {
			break // plan is LB-ascending: every later block prunes too
		}
		lo := bb.Block * blockRows
		if lo >= rows {
			continue
		}
		hi := lo + blockRows
		if hi > rows {
			hi = rows
		}
		m, err := s.readRowRange(ctx, model, interm, cols, lo, hi)
		if err != nil {
			return nil, err
		}
		for r := 0; r < m.Rows; r++ {
			row := lo + r
			if row == queryRow {
				continue
			}
			cands = append(cands, Neighbor{Row: row, Dist: tensor.L2Dist(m.Row(r), query)})
		}
		sort.Slice(cands, func(a, b int) bool {
			return diag.DistLess(cands[a].Dist, cands[b].Dist, cands[a].Row, cands[b].Row)
		})
		if len(cands) > k {
			cands = cands[:k]
		}
		if len(cands) >= k {
			kth = cands[k-1].Dist
		}
	}
	return cands, nil
}

// columnQueryTarget validates a (model, intermediate, column) probe target
// and records the query.
func (s *System) columnQueryTarget(ctx context.Context, model, interm, column string) (*colQueryTarget, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	it, ok := s.meta.IntermSnapshot(model, interm)
	if !ok {
		return nil, fmt.Errorf("mistique: %w %s.%s", ErrUnknownIntermediate, model, interm)
	}
	found := false
	for _, c := range it.Columns {
		if c == column {
			found = true
			break
		}
	}
	if !found {
		return nil, fmt.Errorf("mistique: %w %s.%s.%s", ErrUnknownColumn, model, interm, column)
	}
	if !it.Materialized {
		return nil, fmt.Errorf("mistique: %s.%s %w; column probes need stored chunks", model, interm, ErrNotMaterialized)
	}
	if _, err := s.meta.RecordQuery(model, interm); err != nil {
		return nil, err
	}
	return &colQueryTarget{Rows: it.Rows}, nil
}

type colQueryTarget struct {
	Rows int
}

func indexKey(model, interm, column string) nindex.Key {
	return nindex.Key{Model: model, Intermediate: interm, Column: column}
}

// columnFetcher loads a full column for an index build or scan fallback.
func (s *System) columnFetcher(ctx context.Context, model, interm, column string, rows int) nindex.Fetch {
	return func() ([]float32, int, error) {
		vals, err := s.readColumnRange(ctx, model, interm, column, 0, rows)
		if err != nil {
			return nil, 0, err
		}
		return vals, s.cfg.RowBlockRows, nil
	}
}

// readColumnRange reads rows [from, to) of one column, healing lost
// chunks by re-materializing from a model re-run (once).
func (s *System) readColumnRange(ctx context.Context, model, interm, column string, from, to int) ([]float32, error) {
	vals, err := s.store.GetColumnRange(model, interm, column, from, to)
	if err != nil && recoverableReadErr(err) {
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if herr := s.healIntermediate(model, interm); herr != nil {
			return nil, herr
		}
		vals, err = s.store.GetColumnRange(model, interm, column, from, to)
	}
	return vals, err
}

// filterViaIndex answers a FilterRows predicate from the column's index.
// ok=false sends the caller to the zone-map scan path (index disabled,
// signature unavailable, column moved since its previous probe, or probe
// failed) — falling back is always safe because both paths rank
// identically.
func (s *System) filterViaIndex(ctx context.Context, model, interm, column string, op colstore.Op, bound float32, rows int) ([]int, bool, error) {
	if s.nidx == nil {
		return nil, false, nil
	}
	nop, ok := indexOp(op)
	if !ok {
		return nil, false, nil
	}
	key := indexKey(model, interm, column)
	sig, err := s.store.ColumnSignature(model, interm, column)
	if err != nil || s.nidx.Moved(key, sig) {
		return nil, false, nil
	}
	out, err := s.nidx.FilterRows(key, sig, nop, bound,
		s.columnFetcher(ctx, model, interm, column, rows))
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, false, err
		}
		return nil, false, nil
	}
	if out == nil {
		out = []int{}
	}
	return out, true, nil
}

// indexOp maps the store's zone-map predicate to the index's.
func indexOp(op colstore.Op) (nindex.Op, bool) {
	switch op {
	case colstore.Gt:
		return nindex.Gt, true
	case colstore.Ge:
		return nindex.Ge, true
	case colstore.Lt:
		return nindex.Lt, true
	case colstore.Le:
		return nindex.Le, true
	}
	return 0, false
}
