package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"time"

	"mistique"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/diag"
	"mistique/internal/nn"
	"mistique/internal/obs"
	"mistique/internal/zillow"
)

// diag_query: one closed-loop client runs a seeded, Zipf-skewed mix of
// exact diagnosis queries against two stores built in set-up: a VGG16
// checkpoint under the dnn_log configuration and six Zillow pipelines
// under the default DEDUP configuration (LSH co-location). Each store's
// buffer pool is below its decoded size, so the working set does not fit
// and reads page partitions in and out.
const (
	diagExamples      = 512      // images in the VGG16 checkpoint (2 RowBlocks)
	diagSmallEx       = 32       // "small nEx" of the DNN fetch cells
	diagProps         = 6000     // Zillow properties table rows
	diagTrain         = 3000     // Zillow training rows
	diagTradPartBytes = 64 << 10 // pipeline store partition target
	diagChecks        = 6
	diagTopK          = 10
	diagGetRowsWidth  = 64
)

// The query mix. Both numbers are assumptions of this benchmark; no
// measured trace of diagnosis queries stands behind them.
const (
	// diagZipfS is the Zipf exponent of the draws within a class.
	diagZipfS = 1.2
	// diagDeck is the number of draws in one pass over a class's deck.
	diagDeck = 240
)

// diagPipelines picks six structurally different pipeline templates.
var diagPipelines = []string{"p1_v0", "p2_v1", "p3_v2", "p5_v0", "p8_v1", "p9_v3"}

// Buffer pools below the stores' decoded sizes (mistique_store_stored_bytes
// after set-up: about 18.0 MB for the VGG16 store and 1.23 MB for the
// pipeline store). The VGG16 store keeps the default 4 MiB partitions and
// its pool holds three of its five. The pipeline store decodes to less
// than one default partition, so it is cut into 64 KiB partitions to have
// a pool between one partition and its size. Set-up fails if a seed ever
// makes a store fit.
const (
	diagDNNBudget  = 12 << 20
	diagTradBudget = 400 << 10
)

// query is one diagnosis query of the mix.
type query struct {
	kind  string // fetch, topk, filter, knn, rows
	sys   *mistique.System
	model string
	inter string
	col   string
	cols  []string
	nEx   int
	bound float32
	row   int
}

type diagQuery struct {
	dnn, trad *mistique.System
	net       *nn.Network
	classes   map[string][]query
	decoded   [2]int64
}

func (w *diagQuery) setup(e *env) error {
	fs := fsFor(e.rec)
	var err error
	if w.dnn, err = openSystem(filepath.Join(e.dir, "dnn"), dnnConfig(fs, diagDNNBudget, 0)); err != nil {
		return err
	}
	imgs, _ := data.Images(diagExamples, 10, e.seed)
	w.net = nn.VGG16("vgg", 10, dnnWidth, modelSeed)
	if _, err := w.dnn.LogDNN("vgg", w.net, imgs, mistique.DNNLogOptions{Scheme: mistique.SchemePool2}); err != nil {
		return err
	}
	w.trad, err = openSystem(filepath.Join(e.dir, "trad"), mistique.Config{Store: colstore.Config{
		MemBudgetBytes:       diagTradBudget,
		PartitionTargetBytes: diagTradPartBytes,
		FS:                   fs,
	}})
	if err != nil {
		return err
	}
	zenv := zillow.Env(diagProps, diagTrain, e.seed)
	pipes, err := zillow.Build(zenv)
	if err != nil {
		return err
	}
	for _, p := range pipes {
		for _, want := range diagPipelines {
			if p.Name == want {
				if _, err := w.trad.LogPipeline(p, zenv); err != nil {
					return err
				}
			}
		}
	}
	for i, s := range []*mistique.System{w.dnn, w.trad} {
		if err := s.Flush(); err != nil {
			return err
		}
		if _, err := s.Calibrate(); err != nil {
			return err
		}
		w.decoded[i] = s.Metrics().Gauges["mistique_store_stored_bytes"]
	}
	if w.decoded[0] <= diagDNNBudget || w.decoded[1] <= diagTradBudget {
		return fmt.Errorf("stores fit their buffer pools (decoded %d and %d bytes)", w.decoded[0], w.decoded[1])
	}
	if err := w.buildMix(); err != nil {
		return err
	}
	for _, s := range []*mistique.System{w.dnn, w.trad} {
		if err := s.Store().DropCache(); err != nil {
			return err
		}
	}
	return nil
}

// buildMix lists the queries of each class. The list, and so each
// query's Zipf rank, is the same for every seed: fixed layers, columns and
// rows. The seed enters through the stored values and the draws. The rank
// order is an assumption: DNN fetches rank the output layer first and the
// input layer last, as a diagnosis walks back from the predictions, and a
// few examples before all of them; the other classes keep catalog order.
func (w *diagQuery) buildMix() error {
	w.classes = map[string][]query{}
	names := w.net.LayerNames()
	dnnLayers := []string{names[len(names)-1], midLayer(names), names[0]}
	for _, l := range dnnLayers {
		for _, n := range []int{diagSmallEx, diagExamples} {
			w.classes["dnn"] = append(w.classes["dnn"], query{kind: "fetch", sys: w.dnn, model: "vgg", inter: l, nEx: n})
		}
	}
	meta := w.trad.Metadata()
	for _, m := range meta.Models() {
		for _, it := range meta.IntermSnapshots(m) {
			if it.Rows == 0 || len(it.Columns) == 0 {
				continue
			}
			w.classes["trad"] = append(w.classes["trad"], query{kind: "fetch", sys: w.trad, model: m, inter: it.Name})
		}
	}
	// Scans: TopK, FilterRows, KNN and GetRows over DNN layers and the
	// pipelines' feature tables.
	type target struct {
		sys          *mistique.System
		model, inter string
	}
	targets := []target{{w.dnn, "vgg", names[0]}, {w.dnn, "vgg", midLayer(names)}, {w.dnn, "vgg", "fc1"}}
	for _, m := range meta.Models() {
		targets = append(targets, target{w.trad, m, "joined"})
	}
	for _, t := range targets {
		it, ok := t.sys.Metadata().IntermSnapshot(t.model, t.inter)
		if !ok {
			return fmt.Errorf("no intermediate %s.%s", t.model, t.inter)
		}
		for c := 0; c < 2; c++ {
			col := it.Columns[(2*c+1)*len(it.Columns)/4]
			vals, err := t.sys.Fetch(t.model, t.inter, []string{col}, 0, cost.Read)
			if err != nil {
				return err
			}
			// FilterRows keeps about the top tenth of the column.
			sorted := append([]float32(nil), vals.Data.Col(0)...)
			sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
			bound := sorted[len(sorted)*9/10]
			base := query{sys: t.sys, model: t.model, inter: t.inter, col: col}
			topk, filter := base, base
			topk.kind, filter.kind, filter.bound = "topk", "filter", bound
			w.classes["scan"] = append(w.classes["scan"], topk, filter)
		}
		knn := query{kind: "knn", sys: t.sys, model: t.model, inter: t.inter, row: it.Rows / 3}
		rows := knn
		rows.kind = "rows"
		rows.cols = it.Columns
		if len(rows.cols) > diagGetRowsWidth {
			off := (len(rows.cols) - diagGetRowsWidth) / 2
			rows.cols = rows.cols[off : off+diagGetRowsWidth]
		}
		rows.row = it.Rows / 8
		rows.nEx = it.Rows / 4
		w.classes["scan"] = append(w.classes["scan"], knn, rows)
	}
	return nil
}

// midLayer is the VGG16 middle conv layer (the paper's Layer11).
func midLayer(names []string) string {
	for _, n := range names {
		if n == "conv3_3" {
			return n
		}
	}
	return names[len(names)/2]
}

func (w *diagQuery) close() {
	for _, s := range []*mistique.System{w.dnn, w.trad} {
		if s != nil {
			s.Close()
		}
	}
}

// zipfDeck returns the order in which a class of n queries is drawn:
// query r (Zipf rank r+1) appears in proportion to (r+1)^-diagZipfS, at
// least once, in a deck of about diagDeck draws that the seeded shuffle
// orders and the window cycles through. Every run thus sends each query
// the same share; the seed sets the order.
func zipfDeck(n int, rng *rand.Rand) []int {
	var sum float64
	for r := 1; r <= n; r++ {
		sum += math.Pow(float64(r), -diagZipfS)
	}
	var d []int
	for r := 0; r < n; r++ {
		c := max(1, int(math.Round(diagDeck*math.Pow(float64(r+1), -diagZipfS)/sum)))
		for ; c > 0; c-- {
			d = append(d, r)
		}
	}
	rng.Shuffle(len(d), func(i, j int) { d[i], d[j] = d[j], d[i] })
	return d
}

// run executes one query; fetch results are returned for cost accounting.
func (q query) run(ctx context.Context) (*mistique.Result, error) {
	switch q.kind {
	case "fetch":
		return q.sys.GetIntermediateCtx(ctx, q.model, q.inter, q.cols, q.nEx)
	case "topk":
		_, err := q.sys.TopKCtx(ctx, q.model, q.inter, q.col, diagTopK)
		return nil, err
	case "filter":
		_, err := q.sys.FilterRowsCtx(ctx, q.model, q.inter, q.col, colstore.Ge, q.bound)
		return nil, err
	case "knn":
		_, err := q.sys.KNNCtx(ctx, q.model, q.inter, q.row, diagTopK)
		return nil, err
	case "rows":
		_, err := q.sys.GetRowsCtx(ctx, q.model, q.inter, q.cols, q.row, q.row+q.nEx)
		return nil, err
	}
	return nil, fmt.Errorf("unknown query kind %q", q.kind)
}

func (w *diagQuery) measure(e *env) (*phase, error) {
	ph := newPhase()
	rng := rand.New(rand.NewSource(e.seed + 1))
	classes := []string{"dnn", "trad", "scan"}
	decks := map[string][]int{}
	for _, c := range classes {
		decks[c] = zipfDeck(len(w.classes[c]), rng)
	}
	lat := map[string][]float64{}
	var results []*mistique.Result
	var done []float64
	before := metricsOf(w.dnn, w.trad)
	start := time.Now()
	window := time.Duration(e.seconds * float64(time.Second))
	for i := 0; time.Since(start) < window; i++ {
		c := classes[i%len(classes)]
		d := decks[c]
		q := w.classes[c][d[(i/len(classes))%len(d)]]
		if e.rec != nil {
			e.rec.metrics = q.sys.Metrics
		}
		op, ctx := e.rec.op(context.Background(), 0, "query", c+":"+q.kind)
		t0 := time.Now()
		res, err := q.run(ctx)
		ms := float64(time.Since(t0)) / 1e6
		op.end()
		ph.ops.note(err)
		if err != nil {
			continue
		}
		ph.latMs = append(ph.latMs, ms)
		lat[c] = append(lat[c], ms)
		done = append(done, time.Since(start).Seconds())
		if res != nil {
			res.Data = nil // keep the accounting, drop the matrix
			results = append(results, res)
		}
	}
	ph.seconds = time.Since(start).Seconds()
	ph.rate = sliceRate(done, 1, e.seconds)
	for c, label := range map[string]string{"dnn": "dnn_fetch", "trad": "trad_fetch", "scan": "scan"} {
		ph.detail[label+"_p50_ms"] = metric{percentile(lat[c], 50), "ms"}
		ph.detail[label+"_p90_ms"] = metric{percentile(lat[c], 90), "ms"}
		ph.detail[label+"_samples"] = metric{float64(len(lat[c])), "count"}
	}
	ph.detail["dnn_decoded_mib"] = metric{float64(w.decoded[0]) / (1 << 20), "MiB"}
	ph.detail["trad_decoded_mib"] = metric{float64(w.decoded[1]) / (1 << 20), "MiB"}
	var onDisk, logical int64
	for _, s := range []*mistique.System{w.dnn, w.trad} {
		b, err := s.DiskBytes()
		if err != nil {
			return nil, err
		}
		onDisk += b
		logical += s.Metrics().Gauges["mistique_store_logical_bytes"]
	}
	ph.storedRatio = float64(onDisk) / float64(logical)
	if e.rec != nil {
		w.layerMetrics(ph, results, sumDeltas(before, metricsOf(w.dnn, w.trad)))
	}
	return ph, nil
}

// layerMetrics derives the per-layer metrics of a traced window from its
// obs delta, the window's cost-model fetches and a cold forced-strategy
// grid run after the window.
func (w *diagQuery) layerMetrics(ph *phase, results []*mistique.Result, d map[string]float64) {
	n := float64(len(ph.latMs))
	var dnnFetch, dnnRead float64
	for _, r := range results {
		if r.Model == "vgg" {
			dnnFetch++
			if r.Strategy == cost.Read {
				dnnRead++
			}
		}
	}
	ph.layer("engine.read_frac", ratio(dnnRead, dnnFetch))
	ph.layer("colstore.pagein_s", d["mistique_store_pagein_seconds_sum"]/n)
	ph.layer("colstore.chunk_read_s", d["mistique_store_chunk_read_seconds_sum"]/n)
	ph.layer("colstore.pageins_per_query", d["mistique_store_pagein_seconds_count"]/n)
	ph.layer("colstore.disk_read_bytes_per_query", d["mistique_store_disk_read_bytes_total"]/n)
	ph.layer("colstore.evictions_per_query", d["mistique_store_evictions_total"]/n)
	nindexMetrics(ph, d)

	g := w.forcedGrid(&ph.ops)
	var readErr, rerunErr []float64
	for _, r := range append(results, g.results...) {
		if r.Strategy == cost.Read {
			readErr = append(readErr, relErr(r.EstReadSecs, r.FetchSeconds))
		} else {
			rerunErr = append(rerunErr, relErr(r.EstRerunSecs, r.FetchSeconds))
		}
	}
	ph.layer("cost.read_rel_err_p50", median0(readErr))
	ph.layer("cost.rerun_rel_err_p50", median0(rerunErr))
	ph.layer("cost.wrong_pick_frac", ratio(g.wrong, g.cells))
	ph.layer("nn.rerun_s", mean(g.rerunSecs["vgg"]))
	ph.layer("pipeline.rerun_s", mean(g.rerunSecs["trad"]))
}

// metricsOf snapshots several Systems for summed deltas.
func metricsOf(systems ...*mistique.System) []*obs.Snapshot {
	out := make([]*obs.Snapshot, len(systems))
	for i, s := range systems {
		out[i] = s.Metrics()
	}
	return out
}

// nindexMetrics reports the index layer from an obs delta.
func nindexMetrics(ph *phase, d map[string]float64) {
	builds, hits := d["mistique_index_builds_total"], d["mistique_index_hits_total"]
	ph.layer("nindex.builds", builds)
	ph.layer("nindex.hit_frac", ratio(hits, hits+builds))
	ph.layer("nindex.build_s", ratio(d["mistique_index_build_seconds_sum"], d["mistique_index_build_seconds_count"]))
	ph.layer("nindex.probe_s", ratio(d["mistique_index_probe_seconds_sum"], d["mistique_index_probe_seconds_count"]))
}

func relErr(est, actual float64) float64 {
	if actual <= 0 {
		return 0
	}
	return math.Abs(est-actual) / actual
}

func median0(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return median(v)
}

// sumDeltas adds the per-System deltas of paired snapshots.
func sumDeltas(before, after []*obs.Snapshot) map[string]float64 {
	out := map[string]float64{}
	for i := range before {
		for k, v := range snapshotDelta(before[i], after[i]) {
			out[k] += v
		}
	}
	return out
}

// grid is the outcome of forcing both strategies on a set of cells.
type grid struct {
	cells, wrong float64
	results      []*mistique.Result
	// rerunSecs holds the forced RERUN fetch times, by "vgg" or "trad".
	rerunSecs map[string][]float64
}

// forcedGrid fetches every cell of a VGG16 layer x nEx grid (6 layers x
// 3 sizes) and every pipeline intermediate of one pipeline twice from a
// cold buffer pool, once per strategy, and counts the cells where the
// cost model's choice was the slower one. Every fetch counts in t.
func (w *diagQuery) forcedGrid(t *tally) grid {
	g := grid{rerunSecs: map[string][]float64{}}
	var cells []query
	names := w.net.LayerNames()
	for i := 0; i < 6; i++ {
		for _, n := range []int{diagSmallEx, 128, diagExamples} {
			cells = append(cells, query{sys: w.dnn, model: "vgg", inter: names[i*(len(names)-1)/5], nEx: n})
		}
	}
	for _, q := range w.classes["trad"] {
		if q.model == diagPipelines[0] {
			cells = append(cells, q)
		}
	}
	for _, q := range cells {
		readEst, rerunEst, err := q.sys.Estimate(q.model, q.inter, q.nEx)
		t.note(err)
		if err != nil {
			continue
		}
		var res [2]*mistique.Result
		for i, st := range []cost.Strategy{cost.Read, cost.Rerun} {
			if err = q.sys.Store().DropCache(); err == nil {
				res[i], err = q.sys.Fetch(q.model, q.inter, nil, q.nEx, st)
			}
			t.note(err)
			if err != nil {
				break
			}
			res[i].Data = nil
		}
		if err != nil {
			continue
		}
		g.cells++
		g.results = append(g.results, res[0], res[1])
		kind := "trad"
		if q.model == "vgg" {
			kind = "vgg"
		}
		g.rerunSecs[kind] = append(g.rerunSecs[kind], res[1].FetchSeconds)
		pickRead := cost.Choose(rerunEst, readEst) == cost.Read
		if pickRead != (res[0].FetchSeconds <= res[1].FetchSeconds) {
			g.wrong++
		}
	}
	return g
}

// check verifies a seeded sample: forced READ and forced RERUN return the
// same values, and TopK equals a brute-force ranking of the column.
func (w *diagQuery) check(e *env) tally {
	var t tally
	rng := rand.New(rand.NewSource(e.seed + 2))
	for i := 0; i < diagChecks; i++ {
		c := []string{"dnn", "trad"}[i%2]
		q := w.classes[c][rng.Intn(len(w.classes[c]))]
		t.note(readRerunAgree(q))
	}
	var topks []query
	for _, q := range w.classes["scan"] {
		if q.kind == "topk" {
			topks = append(topks, q)
		}
	}
	for i := 0; i < diagChecks; i++ {
		t.note(topKMatchesScan(topks[rng.Intn(len(topks))]))
	}
	return t
}

func readRerunAgree(q query) error {
	read, err := q.sys.Fetch(q.model, q.inter, nil, q.nEx, cost.Read)
	if err != nil {
		return fmt.Errorf("READ %s.%s: %w", q.model, q.inter, err)
	}
	rerun, err := q.sys.Fetch(q.model, q.inter, nil, q.nEx, cost.Rerun)
	if err != nil {
		return fmt.Errorf("RERUN %s.%s: %w", q.model, q.inter, err)
	}
	return sameFloats(fmt.Sprintf("READ vs RERUN %s.%s", q.model, q.inter), read.Data.Data, rerun.Data.Data)
}

func topKMatchesScan(q query) error {
	got, err := q.sys.TopK(q.model, q.inter, q.col, diagTopK)
	if err != nil {
		return err
	}
	res, err := q.sys.Fetch(q.model, q.inter, []string{q.col}, 0, cost.Read)
	if err != nil {
		return err
	}
	col := res.Data.Col(0)
	want := make([]int, len(col))
	for i := range want {
		want[i] = i
	}
	sort.Slice(want, func(a, b int) bool { return diag.RankLess(col[want[a]], col[want[b]], want[a], want[b]) })
	if len(want) > diagTopK {
		want = want[:diagTopK]
	}
	if len(got) != len(want) {
		return fmt.Errorf("TopK %s.%s.%s: %d entries, want %d", q.model, q.inter, q.col, len(got), len(want))
	}
	for i, g := range got {
		if g.Row != want[i] || math.Float32bits(g.Value) != math.Float32bits(col[want[i]]) {
			return fmt.Errorf("TopK %s.%s.%s rank %d: got row %d (%v), scan says row %d (%v)", q.model, q.inter, q.col, i, g.Row, g.Value, want[i], col[want[i]])
		}
	}
	return nil
}
