package mistique

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"mistique/internal/cost"
	"mistique/internal/sample"
	"mistique/internal/tensor"
)

// Approximate queries: COL_DIST-style aggregates, top-k probes, confusion
// matrices and row samples answered from the per-intermediate reservoir
// (internal/sample) at interactive latency, each carrying a
// distribution-free error bound. Every entry point takes a maxError knob:
// when the bound the sample can deliver is wider than requested, the
// query transparently falls back to the exact path (READ or RERUN, per
// the cost model) and reports a zero bound — so callers always get an
// answer within their tolerance, just not always the fast one.
//
// maxError is a fraction: of the column's finite value range for means,
// of rank for top-k, of the row count for confusion cells. maxError <= 0
// accepts whatever bound the sample delivers (no fallback).
//
// For streaming intermediates the sample covers every acknowledged row —
// approximate answers can be *fresher* than exact reads, which only see
// rows drained into partitions.

// ColDist is an approximate column distribution: exact NaN/±Inf accounting
// and range (tracked at ingest), estimated mean/std/median with bounds.
type ColDist struct {
	Model        string
	Intermediate string
	Column       string
	// Rows is the population behind the estimate (every row the sampler
	// has seen); Finite/NaN/PosInf/NegInf partition it exactly.
	Rows   int64
	Finite int64
	NaN    int64
	PosInf int64
	NegInf int64
	// Min/Max are exact over the finite values.
	Min float32
	Max float32
	// Mean carries MeanBound (absolute, ≥ the true error with probability
	// 1-1e-4); both are exact (bound 0) on the fallback path.
	Mean      float64
	MeanBound float64
	Std       float64
	// P50 is the estimated median; P50RankBound bounds its true rank
	// fraction (DKW, 1-1e-3).
	P50          float32
	P50RankBound float64
	// SampleRows is the reservoir size behind the estimate (0 on the
	// exact path); Strategy is SAMPLE, or the exact strategy after a
	// fallback.
	SampleRows    int64
	Strategy      cost.Strategy
	EstSampleSecs float64
	EstReadSecs   float64
	FetchSeconds  float64
}

// ColDist estimates a column's distribution. See ColDistCtx.
func (s *System) ColDist(model, interm, column string, maxError float64) (*ColDist, error) {
	return s.ColDistCtx(context.Background(), model, interm, column, maxError)
}

// ColDistCtx estimates a column's distribution from the intermediate's
// reservoir sample when the sample's mean bound (as a fraction of the
// column's value range) is within maxError, and from an exact read
// otherwise.
func (s *System) ColDistCtx(ctx context.Context, model, interm, column string, maxError float64) (*ColDist, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &ColDist{Model: model, Intermediate: interm, Column: column}
	if sm := s.sampleFor(model, interm, column); sm != nil {
		if j := sm.ColIndex(column); j >= 0 {
			st := sm.Stats[j]
			est := sm.MeanEstimate(j)
			if withinRangeFraction(est.Bound, float64(st.Max)-float64(st.Min), maxError) {
				start := time.Now()
				_, std, _ := sm.Moments(j)
				out.Rows, out.Finite, out.NaN, out.PosInf, out.NegInf = st.Rows(), st.Finite, st.NaN, st.PosInf, st.NegInf
				out.Min, out.Max = st.Min, st.Max
				out.Mean, out.MeanBound, out.Std = est.Value, est.Bound, std
				out.P50, out.P50RankBound = sm.Quantile(j, 0.5)
				out.SampleRows = int64(sm.Rows())
				out.Strategy = cost.Sample
				costP := s.CostParams()
				out.EstSampleSecs = cost.SampleReadSeconds(out.SampleRows, 4, costP)
				out.EstReadSecs = cost.ChainReadSeconds(4, int(out.Rows), s.store.MaxDeltaDepth(model, interm), costP)
				out.FetchSeconds = time.Since(start).Seconds()
				if _, err := s.meta.RecordQuery(model, interm); err != nil {
					return nil, err
				}
				s.metrics.observeSample(out.EstSampleSecs, out.FetchSeconds)
				s.noteSlowQuery(slowQueryRecord{
					Op: "col_dist", Model: model, Intermediate: interm,
					Strategy: out.Strategy.String(), Cols: 1, NEx: int(out.Rows),
					EstReadSecs: out.EstReadSecs, Seconds: out.FetchSeconds,
				})
				return out, nil
			}
		}
	}
	// Exact fallback: fetch the column through the normal cost-model path
	// and compute the same statistics exactly.
	s.metrics.sampleFallbacks.Inc()
	res, err := s.GetIntermediateCtx(ctx, model, interm, []string{column}, 0)
	if err != nil {
		return nil, err
	}
	exactColDist(out, res.Data.Col(0))
	out.Strategy = res.Strategy
	out.EstReadSecs = res.EstReadSecs
	out.FetchSeconds = res.FetchSeconds
	return out, nil
}

// withinRangeFraction reports whether an absolute bound over a value range
// satisfies the requested fractional tolerance. A zero-width range only
// passes with a zero bound (constant column: exact).
func withinRangeFraction(bound, width, maxError float64) bool {
	if maxError <= 0 {
		return true
	}
	if bound == 0 {
		return true
	}
	if width <= 0 || math.IsInf(bound, 1) {
		return false
	}
	return bound/width <= maxError
}

// exactColDist fills a ColDist from a fully materialized column.
func exactColDist(out *ColDist, col []float32) {
	out.Min = float32(math.Inf(1))
	out.Max = float32(math.Inf(-1))
	var sum float64
	fin := make([]float32, 0, len(col))
	for _, v := range col {
		switch {
		case v != v:
			out.NaN++
		case float64(v) == math.Inf(1):
			out.PosInf++
		case float64(v) == math.Inf(-1):
			out.NegInf++
		default:
			out.Finite++
			if v < out.Min {
				out.Min = v
			}
			if v > out.Max {
				out.Max = v
			}
			sum += float64(v)
			fin = append(fin, v)
		}
	}
	out.Rows = int64(len(col))
	if out.Finite == 0 {
		out.Mean = math.NaN()
		out.P50 = float32(math.NaN())
		return
	}
	out.Mean = sum / float64(out.Finite)
	var ss float64
	for _, v := range fin {
		d := float64(v) - out.Mean
		ss += d * d
	}
	if out.Finite > 1 {
		out.Std = math.Sqrt(ss / float64(out.Finite-1))
	}
	out.P50 = quickMedian(fin)
}

// quickMedian returns the lower median.
func quickMedian(v []float32) float32 {
	if len(v) == 0 {
		return float32(math.NaN())
	}
	sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
	return v[(len(v)-1)/2]
}

// TopKApprox is an approximate TOPK answer.
type TopKApprox struct {
	Model        string
	Intermediate string
	Column       string
	// Entries are real (row id, value) pairs, best first. On the SAMPLE
	// path the values are true stored values of the sampled rows; only
	// their ranks are approximate.
	Entries []sample.RowValue
	// RankBound bounds every entry's true rank fraction (0 on the exact
	// path).
	RankBound    float64
	Rows         int64
	SampleRows   int64
	Strategy     cost.Strategy
	FetchSeconds float64
}

// ApproxTopK returns the k (approximately) largest values of a column.
// See ApproxTopKCtx.
func (s *System) ApproxTopK(model, interm, column string, k int, maxError float64) (*TopKApprox, error) {
	return s.ApproxTopKCtx(context.Background(), model, interm, column, k, maxError)
}

// ApproxTopKCtx answers TOPK from the reservoir sample when the rank bound
// is within maxError (a rank fraction), and from the exact index-backed
// TopK otherwise.
func (s *System) ApproxTopKCtx(ctx context.Context, model, interm, column string, k int, maxError float64) (*TopKApprox, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if k <= 0 {
		return nil, fmt.Errorf("mistique: approx topk needs k > 0")
	}
	out := &TopKApprox{Model: model, Intermediate: interm, Column: column}
	if sm := s.sampleFor(model, interm, column); sm != nil {
		if j := sm.ColIndex(column); j >= 0 {
			entries, bound := sm.TopK(j, k, true)
			if maxError <= 0 || bound <= maxError {
				start := time.Now()
				out.Entries = entries
				out.RankBound = bound
				out.Rows = sm.Stats[j].Rows()
				out.SampleRows = int64(sm.Rows())
				out.Strategy = cost.Sample
				out.FetchSeconds = time.Since(start).Seconds()
				if _, err := s.meta.RecordQuery(model, interm); err != nil {
					return nil, err
				}
				est := cost.SampleReadSeconds(out.SampleRows, 4, s.CostParams())
				s.metrics.observeSample(est, out.FetchSeconds)
				return out, nil
			}
		}
	}
	s.metrics.sampleFallbacks.Inc()
	start := time.Now()
	exact, err := s.TopKCtx(ctx, model, interm, column, k)
	if err != nil {
		return nil, err
	}
	out.Entries = make([]sample.RowValue, len(exact))
	for i, e := range exact {
		out.Entries[i] = sample.RowValue{Row: int64(e.Row), Value: e.Value}
	}
	if it, ok := s.meta.IntermSnapshot(model, interm); ok {
		out.Rows = int64(it.Rows)
	}
	out.Strategy = cost.Read
	out.FetchSeconds = time.Since(start).Seconds()
	return out, nil
}

// ConfusionMatrix is an approximate (label, prediction) contingency table.
type ConfusionMatrix struct {
	Model        string
	Intermediate string
	LabelCol     string
	PredCol      string
	// Cells are sorted by (label, pred); Count is in row units with a
	// per-cell absolute bound (0 on the exact path).
	Cells []sample.Cell
	Rows  int64
	// Stratified reports whether per-label sub-reservoirs answered.
	Stratified bool
	// MaxBound is the largest cell bound as a fraction of Rows.
	MaxBound     float64
	SampleRows   int64
	Strategy     cost.Strategy
	FetchSeconds float64
}

// ConfusionMatrixApprox estimates the confusion matrix of a label and a
// prediction column. See ConfusionMatrixCtx.
func (s *System) ConfusionMatrixApprox(model, interm, labelCol, predCol string, maxError float64) (*ConfusionMatrix, error) {
	return s.ConfusionMatrixCtx(context.Background(), model, interm, labelCol, predCol, maxError)
}

// ConfusionMatrixCtx estimates the (label, pred) contingency table from
// the sample — using the stratified per-label sub-reservoirs when the
// sample is stratified on labelCol — when the largest cell bound (as a
// fraction of the row count) is within maxError, and from an exact
// two-column read otherwise.
func (s *System) ConfusionMatrixCtx(ctx context.Context, model, interm, labelCol, predCol string, maxError float64) (*ConfusionMatrix, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &ConfusionMatrix{Model: model, Intermediate: interm, LabelCol: labelCol, PredCol: predCol}
	if sm := s.sampleFor(model, interm, labelCol, predCol); sm != nil {
		lj, pj := sm.ColIndex(labelCol), sm.ColIndex(predCol)
		if lj >= 0 && pj >= 0 {
			est, err := sm.Confusion(lj, pj)
			if err == nil && (maxError <= 0 || est.MaxBound <= maxError) {
				start := time.Now()
				out.Cells = est.Cells
				out.Rows = sm.Seen
				out.Stratified = est.Stratified
				out.MaxBound = est.MaxBound
				out.SampleRows = est.SampledRows
				out.Strategy = cost.Sample
				out.FetchSeconds = time.Since(start).Seconds()
				if _, err := s.meta.RecordQuery(model, interm); err != nil {
					return nil, err
				}
				estSecs := cost.SampleReadSeconds(est.SampledRows, 8, s.CostParams())
				s.metrics.observeSample(estSecs, out.FetchSeconds)
				s.noteSlowQuery(slowQueryRecord{
					Op: "confusion", Model: model, Intermediate: interm,
					Strategy: out.Strategy.String(), Cols: 2, NEx: int(out.Rows),
					Seconds: out.FetchSeconds,
				})
				return out, nil
			}
		}
	}
	s.metrics.sampleFallbacks.Inc()
	res, err := s.GetIntermediateCtx(ctx, model, interm, []string{labelCol, predCol}, 0)
	if err != nil {
		return nil, err
	}
	type cellKey struct{ l, p float32 }
	counts := map[cellKey]int64{}
	for r := 0; r < res.Data.Rows; r++ {
		l, p := res.Data.At(r, 0), res.Data.At(r, 1)
		if l != l || p != p {
			continue
		}
		counts[cellKey{l, p}]++
	}
	for k, c := range counts {
		out.Cells = append(out.Cells, sample.Cell{Label: k.l, Pred: k.p, Count: float64(c)})
	}
	sample.SortCells(out.Cells)
	out.Rows = int64(res.Data.Rows)
	out.Strategy = res.Strategy
	out.FetchSeconds = res.FetchSeconds
	return out, nil
}

// ApproxRows is a uniform row sample of an intermediate with real row ids
// — the approximate variant of GetIntermediate for "show me what this
// layer looks like" diagnosis at interactive latency.
type ApproxRows struct {
	Model        string
	Intermediate string
	Cols         []string
	// RowIDs are the sampled population row ids, ascending; Data is the
	// len(RowIDs) x len(Cols) matrix of their true stored values.
	RowIDs []int64
	Data   *tensor.Dense
	// Rows is the population the sample stands for.
	Rows         int64
	Strategy     cost.Strategy
	FetchSeconds float64
}

// GetIntermediateApprox returns up to maxRows uniformly sampled rows of an
// intermediate. See GetIntermediateApproxCtx.
func (s *System) GetIntermediateApprox(model, interm string, cols []string, maxRows int) (*ApproxRows, error) {
	return s.GetIntermediateApproxCtx(context.Background(), model, interm, cols, maxRows)
}

// GetIntermediateApproxCtx serves a uniform row sample from the reservoir
// (maxRows <= 0 returns the whole reservoir). Without a sample it falls
// back to an exact read of the first maxRows rows.
func (s *System) GetIntermediateApproxCtx(ctx context.Context, model, interm string, cols []string, maxRows int) (*ApproxRows, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	out := &ApproxRows{Model: model, Intermediate: interm}
	if sm := s.sampleFor(model, interm, cols...); sm != nil {
		if len(cols) == 0 {
			cols = sm.Cols
		}
		idx := make([]int, len(cols))
		ok := true
		for i, c := range cols {
			if idx[i] = sm.ColIndex(c); idx[i] < 0 {
				ok = false
				break
			}
		}
		if ok {
			start := time.Now()
			n := sm.Rows()
			if maxRows > 0 && maxRows < n {
				n = maxRows
			}
			// Emit in ascending row-id order for stable presentation.
			order := make([]int, sm.Rows())
			for i := range order {
				order[i] = i
			}
			sortByRowID(order, sm.RowIDs)
			out.Cols = cols
			out.RowIDs = make([]int64, n)
			out.Data = tensor.NewDense(n, len(cols))
			for r := 0; r < n; r++ {
				sr := order[r]
				out.RowIDs[r] = sm.RowIDs[sr]
				for j, cj := range idx {
					out.Data.Set(r, j, sm.Value(sr, cj))
				}
			}
			out.Rows = sm.Seen
			out.Strategy = cost.Sample
			out.FetchSeconds = time.Since(start).Seconds()
			if _, err := s.meta.RecordQuery(model, interm); err != nil {
				return nil, err
			}
			est := cost.SampleReadSeconds(int64(n), int64(4*len(cols)), s.CostParams())
			s.metrics.observeSample(est, out.FetchSeconds)
			return out, nil
		}
	}
	s.metrics.sampleFallbacks.Inc()
	res, err := s.GetIntermediateCtx(ctx, model, interm, cols, maxRows)
	if err != nil {
		return nil, err
	}
	out.Cols = res.Cols
	out.Data = res.Data
	out.RowIDs = make([]int64, res.Data.Rows)
	for i := range out.RowIDs {
		out.RowIDs[i] = int64(i)
	}
	out.Rows = int64(res.Data.Rows)
	out.Strategy = res.Strategy
	out.FetchSeconds = res.FetchSeconds
	return out, nil
}

// sortByRowID sorts sample-slot indices by their population row id.
func sortByRowID(order []int, rowIDs []int64) {
	sort.Slice(order, func(a, b int) bool { return rowIDs[order[a]] < rowIDs[order[b]] })
}

// sampleFor returns the freshest sample for (model, interm): for streams,
// the live sampler's snapshot of the queried columns (all when cols is
// empty); otherwise the cached or persisted MQSM snapshot, which holds
// every column. nil means no sample exists (callers fall back to the
// exact path).
func (s *System) sampleFor(model, interm string, cols ...string) *sample.Sample {
	if st := s.streamFor(model, interm); st != nil {
		return st.sampleSnapshot(cols)
	}
	key := model + "\x00" + interm
	s.sampleMu.Lock()
	if sm, ok := s.sampleCache[key]; ok {
		s.sampleMu.Unlock()
		return sm
	}
	s.sampleMu.Unlock()
	sm, err := s.samples.Load(model, interm)
	if err != nil || sm == nil {
		return nil
	}
	s.cacheSample(model, interm, sm)
	return sm
}
