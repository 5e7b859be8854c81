package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"mistique"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/data"
	"mistique/internal/faultfs"
	"mistique/internal/nn"
	"mistique/internal/quant"
	"mistique/internal/tensor"
)

// dnn_log: log parent-linked checkpoints of a fine-tuned VGG16 with a
// Flush after each one. Set-up fine-tunes the dense head (conv layers
// frozen) into dnnWeightSets weight blobs and logs the root checkpoint from
// the first; a timed window only calls LoadWeights, LogDNN and Flush, one
// child checkpoint per blob. One network takes every checkpoint's weights
// in turn, as a training loop would; the window never re-runs an older
// checkpoint. No blob is logged twice: a repeated one would dedup whole
// and flush almost nothing, and the flush percentiles would depend on how
// many repeats fit in the window.
const (
	dnnWidth      = 4   // VGG16 channel width scale
	dnnExamples   = 256 // images logged per checkpoint
	dnnBlockRows  = 256 // RowBlock height = forward batch
	dnnWeightSets = 48  // fine-tuned head snapshots made in set-up
	dnnTrainRows  = 64  // images the head is fine-tuned on
	dnnChecks     = 6   // columns read back after reopen
	// modelSeed initializes the VGG16 of both DNN workloads. The model is
	// fixed, like a pretrained network; --seed picks the images.
	modelSeed = 1
	// dnnTimedCkpts is how many child checkpoints, after the root,
	// items_per_s covers. The window runs until it has logged them and
	// --seconds have passed. Flush time grows with every checkpoint
	// stored, so a rate over however many fit in the window would depend
	// on the machine's speed. The LogDNN calls alone do not grow, so
	// op_p50_ms and op_p90_ms cover every checkpoint of the window.
	dnnTimedCkpts = 12
	// dnnRatioCkpts is how many child checkpoints, after the root,
	// stored_bytes_per_logical_byte covers, so it does not depend on how
	// many fit in the window.
	dnnRatioCkpts = 4
)

// dnnConfig is the paper's DNN store configuration: arrival-order
// partitions, exact dedup without LSH co-location, delta generations
// against the parent checkpoint (LogDNN's Parent), actz partition files.
func dnnConfig(fs faultfs.FS, memBudget, partBytes int64) mistique.Config {
	return mistique.Config{
		RowBlockRows: dnnBlockRows,
		Store: colstore.Config{
			Mode:                 colstore.ModeArrival,
			DisableApproxDedup:   true,
			Codec:                "actz",
			FS:                   fs,
			MemBudgetBytes:       memBudget,
			PartitionTargetBytes: partBytes,
		},
	}
}

// fsFor returns the timing filesystem of a traced phase (nil = real OS).
func fsFor(rec *recorder) faultfs.FS {
	if rec == nil {
		return nil
	}
	return &timingFS{inner: faultfs.OS(), rec: rec}
}

// openSystem opens a System and, when traced, routes its catalog saves
// through the timing filesystem too.
func openSystem(dir string, cfg mistique.Config) (*mistique.System, error) {
	sys, err := mistique.Open(dir, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Store.FS != nil {
		sys.Metadata().SetFS(cfg.Store.FS)
	}
	return sys, nil
}

// fineTunedWeights returns n weight blobs of net, each one more epoch of
// fine-tuning of the dense head on the first trainRows images. The conv
// stack stays frozen, so every blob shares its conv weights.
func fineTunedWeights(net *nn.Network, imgs *tensor.T4, labels []int, trainRows, n int) ([][]byte, error) {
	flat := -1
	for i, name := range net.LayerNames() {
		if name == "flatten" {
			flat = i
		}
	}
	if flat <= 0 {
		return nil, fmt.Errorf("network has no flatten layer")
	}
	feats := net.Forward(imgs.SliceN(0, trainRows), flat-1)
	head := &nn.Network{Name: net.Name + "-head", InC: feats.C, InH: feats.H, InW: feats.W, Layers: net.Layers[flat:]}
	out := make([][]byte, n)
	for i := range out {
		head.TrainEpochs(feats, labels[:trainRows], 1, 16, 0.05, nil)
		out[i] = net.SaveWeights()
	}
	return out, nil
}

type dnnLog struct {
	net     *nn.Network
	imgs    *tensor.T4
	weights [][]byte
	sys     *mistique.System
	cfg     mistique.Config
	dir     string
	// ckpts is the number of checkpoints logged; checkpoint i holds
	// weights[i].
	ckpts int
	// offered is the logical activation and weight bytes offered so far.
	offered int64
}

func ckptName(i int) string { return fmt.Sprintf("vgg@c%d", i) }

func (w *dnnLog) setup(e *env) error {
	var labels []int
	w.imgs, labels = data.Images(dnnExamples, 10, e.seed)
	w.net = nn.VGG16("vgg", 10, dnnWidth, modelSeed)
	w.net.FreezeConv()
	var err error
	if w.weights, err = fineTunedWeights(w.net, w.imgs, labels, dnnTrainRows, dnnWeightSets); err != nil {
		return err
	}
	w.dir = e.dir
	w.cfg = dnnConfig(fsFor(e.rec), 0, 0)
	if w.sys, err = openSystem(w.dir, w.cfg); err != nil {
		return err
	}
	if err := w.net.LoadWeights(w.weights[0]); err != nil {
		return err
	}
	rep, err := w.sys.LogDNN(ckptName(0), w.net, w.imgs, mistique.DNNLogOptions{Scheme: mistique.SchemePool2})
	if err != nil {
		return err
	}
	w.ckpts, w.offered = 1, rep.LogicalBytes+rep.WeightBytes
	return w.sys.Flush()
}

func (w *dnnLog) close() {
	if w.sys != nil {
		w.sys.Close()
	}
}

// measure logs child checkpoints until the window ends and at least
// dnnTimedCkpts are logged. Over the first dnnTimedCkpts, items_per_s is
// the examples logged per second of whole checkpoints (LoadWeights, LogDNN
// and Flush, until durable). op_p50_ms and op_p90_ms are the LoadWeights
// and LogDNN calls alone, without the Flush, over every checkpoint of the
// window, as are the per-layer metrics.
func (w *dnnLog) measure(e *env) (*phase, error) {
	ph := newPhase()
	if e.rec != nil {
		e.rec.metrics = w.sys.Metrics
	}
	before := w.sys.Metrics()
	var weightNew, deltaChunks int64
	var logSecs, flushSecs float64
	var ckptMs, flushMs []float64
	from := e.rec.mark()
	start := time.Now()
	window := time.Duration(e.seconds * float64(time.Second))
	first := w.ckpts
	for i := first; i < len(w.weights) && (i-first < dnnTimedCkpts || time.Since(start) < window); i++ {
		t0 := time.Now()
		op, _ := e.rec.op(context.Background(), 0, "engine", "logdnn")
		err := w.net.LoadWeights(w.weights[i])
		var rep *mistique.LogReport
		if err == nil {
			rep, err = w.sys.LogDNN(ckptName(i), w.net, w.imgs, mistique.DNNLogOptions{Scheme: mistique.SchemePool2, Parent: ckptName(i - 1)})
		}
		op.end()
		t1 := time.Now()
		if err == nil {
			op, _ = e.rec.op(context.Background(), 0, "engine", "flush")
			err = w.sys.Flush()
			op.end()
		}
		ph.ops.note(err)
		if err != nil {
			return nil, fmt.Errorf("checkpoint %d: %w", i, err)
		}
		logSecs += t1.Sub(t0).Seconds()
		flushSecs += time.Since(t1).Seconds()
		ph.latMs = append(ph.latMs, float64(t1.Sub(t0))/1e6)
		if i-first < dnnTimedCkpts {
			flushMs = append(flushMs, float64(time.Since(t1))/1e6)
			ckptMs = append(ckptMs, float64(time.Since(t0))/1e6)
		}
		weightNew += rep.WeightNewBytes
		deltaChunks += rep.ColumnsDelta
		w.ckpts++
		if i <= dnnRatioCkpts {
			w.offered += rep.LogicalBytes + rep.WeightBytes
			if ph.storedRatio, err = storeRatio(w.dir, w.offered); err != nil {
				return nil, err
			}
		}
	}
	ph.seconds = time.Since(start).Seconds()
	n := float64(w.ckpts - first)
	ph.rate = float64(w.imgs.N) / (mean(ckptMs) / 1e3)
	ph.detail["log_examples_per_s"] = metric{ph.rate, "1/s"}
	ph.detail["checkpoint_p50_ms"] = metric{median(ckptMs), "ms"}
	ph.detail["flush_p50_ms"] = metric{median(flushMs), "ms"}
	ph.detail["flush_p90_ms"] = metric{percentile(flushMs, 90), "ms"}
	ph.detail["checkpoints"] = metric{n, "count"}
	if e.rec == nil {
		return ph, nil
	}
	d := snapshotDelta(before, w.sys.Metrics())
	ss := e.rec.finish(from)
	_, fsBytes, _ := ss.sum("fs", "write:")
	fsSync, _, _ := ss.sum("fs", "sync:")
	partWrite, _, _ := ss.sum("fs", "write:partition")
	partSync, _, _ := ss.sum("fs", "sync:partition")
	forward := d["mistique_ingest_forward_seconds_sum"]
	pw := d["mistique_flush_partition_write_seconds_sum"]
	ph.layer("engine.logdnn_self_s", (logSecs-forward)/n)
	ph.layer("engine.flush_s", flushSecs/n)
	ph.layer("nn.forward_s", forward/n)
	ph.layer("colstore.put_encode_s", d["mistique_store_put_encode_seconds_sum"]/n)
	ph.layer("colstore.put_hash_s", d["mistique_store_put_hash_seconds_sum"]/n)
	ph.layer("colstore.put_append_s", d["mistique_store_put_append_seconds_sum"]/n)
	ph.layer("colstore.partition_write_s", pw/n)
	ph.layer("colstore.dedup_frac", ratio(d["mistique_store_chunks_deduped_total"], d["mistique_store_chunks_put_total"]))
	ph.layer("colstore.delta_chunks", float64(deltaChunks)/n)
	ph.layer("codec.ratio", ratio(d["mistique_store_codec_actz_raw_bytes_total"], d["mistique_store_codec_actz_file_bytes_total"]))
	ph.layer("codec.compress_s", (pw-partWrite-partSync)/n)
	ph.layer("cas.weight_new_bytes", float64(weightNew)/n)
	ph.layer("metadata.save_s", d["mistique_catalog_save_seconds_sum"]/n)
	ph.layer("fs.sync_s", fsSync/n)
	ph.layer("fs.write_bytes", float64(fsBytes)/n)
	return ph, nil
}

// storeRatio is the bytes under dir over the logical bytes offered.
func storeRatio(dir string, offered int64) (float64, error) {
	onDisk, err := dirBytes(dir)
	return float64(onDisk) / float64(offered), err
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// check closes the store, reopens it and reads back a seeded sample of
// logged columns with forced READ. Each must equal the column recomputed
// from the checkpoint's weights: forward pass, 2x2 average pooling, the
// catalog's column order (POOL2 stores raw float32, actz is lossless).
func (w *dnnLog) check(e *env) tally {
	var t tally
	if err := w.sys.Close(); err != nil {
		t.note(fmt.Errorf("close: %w", err))
		return t
	}
	sys, err := openSystem(w.dir, dnnConfig(nil, 0, 0))
	t.note(err)
	if err != nil {
		return t
	}
	w.sys = sys
	rng := rand.New(rand.NewSource(e.seed))
	net := nn.VGG16("vgg", 10, dnnWidth, modelSeed)
	names := net.LayerNames()
	for c := 0; c < dnnChecks; c++ {
		i := rng.Intn(w.ckpts)
		li := rng.Intn(len(names))
		t.note(w.checkColumn(net, i, li, rng))
	}
	return t
}

func (w *dnnLog) checkColumn(net *nn.Network, i, li int, rng *rand.Rand) error {
	layer := net.LayerNames()[li]
	it, ok := w.sys.Metadata().IntermSnapshot(ckptName(i), layer)
	if !ok {
		return fmt.Errorf("reopen: %s.%s missing from the catalog", ckptName(i), layer)
	}
	j := rng.Intn(len(it.Columns))
	res, err := w.sys.Fetch(ckptName(i), layer, []string{it.Columns[j]}, 0, cost.Read)
	if err != nil {
		return fmt.Errorf("reopen read %s.%s: %w", ckptName(i), layer, err)
	}
	if err := net.LoadWeights(w.weights[i]); err != nil {
		return err
	}
	act := net.ForwardBatched(w.imgs, li, dnnBlockRows)
	if act.H > 1 || act.W > 1 {
		act = quant.Pool(act, 2, quant.Avg)
	}
	want := act.Flatten().Col(j)
	return sameFloats(fmt.Sprintf("%s.%s.%s", ckptName(i), layer, it.Columns[j]), res.Data.Col(0), want)
}

// sameFloats requires bit-identical columns (NaNs compare by bits too).
func sameFloats(what string, got, want []float32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d values, want %d", what, len(got), len(want))
	}
	for r := range got {
		if math.Float32bits(got[r]) != math.Float32bits(want[r]) {
			return fmt.Errorf("%s row %d: got %v, want %v", what, r, got[r], want[r])
		}
	}
	return nil
}
