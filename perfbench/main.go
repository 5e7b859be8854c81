// Command perfbench is MISTIQUE's end-to-end benchmark. It runs one seeded
// workload against the unmodified engine, checks every answer, and prints
// the metrics as one JSON object on the last line of standard output.
//
//	perfbench -workload dnn_log|diag_query|live_ingest -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics, measured with
// no instrumentation installed. With -trace 1 the same workload runs once
// untraced and once with the span recorder and the timing wrappers in
// place, and the result carries the per-layer metrics (see README.md).
// run.sh in this directory builds the binary from the checkout and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Set-up runs at least minSetups times and, for cheap set-ups, until
// setupBudget has been spent (at most maxSetups times); setup_s reports
// the median, so one slow set-up does not move it.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2 * time.Second
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// env carries a run's parameters to the workload.
type env struct {
	seed    int64
	seconds float64
	// dir is a fresh scratch directory inside the checkout for this run.
	dir string
	// rec is the span recorder of a traced phase, nil otherwise.
	rec *recorder
}

// tally counts attempted and failed operations and checks.
type tally struct {
	attempted, failed int64
	// firstErr keeps the first failure for the human-readable summary.
	firstErr error
}

func (t *tally) note(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// phase is what one timed window of a workload measured.
type phase struct {
	seconds float64
	// rate is items_per_s, the workload's unit of work per second
	// (examples logged, queries answered or rows acknowledged), taken over
	// operations or one-second slices of the window so that a short stall
	// of the machine does not move it.
	rate float64
	// latMs holds one latency per timed operation.
	latMs []float64
	// storedRatio is bytes on disk over logical bytes offered.
	storedRatio float64
	ops         tally
	// detail holds the workload's named per-class metrics for the
	// human-readable summary.
	detail map[string]metric
	// layers holds a traced phase's per-layer metrics, set with layer.
	layers map[string]float64
}

func newPhase() *phase {
	return &phase{detail: map[string]metric{}, layers: map[string]float64{}}
}

// layer records a per-layer metric of a traced phase. The name must be in
// layerMetrics, the one list of per-layer names and units; a misspelt name
// panics instead of being reported as a layer that did not run.
func (ph *phase) layer(name string, v float64) {
	if _, ok := layerUnit(name); !ok {
		panic(fmt.Sprintf("perfbench: per-layer metric %q is not in layerMetrics", name))
	}
	ph.layers[name] = v
}

// workload is one benchmark scenario. setup builds the state a timed
// window needs; measure runs the window; check verifies the answers.
type workload interface {
	setup(e *env) error
	measure(e *env) (*phase, error)
	check(e *env) tally
	close()
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "dnn_log":
		return &dnnLog{}, nil
	case "diag_query":
		return &diagQuery{}, nil
	case "live_ingest":
		return &liveIngest{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want dnn_log, diag_query or live_ingest)", name)
}

func main() {
	name := flag.String("workload", "", "dnn_log, diag_query or live_ingest")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 10, "length of each timed window")
	trace := flag.Int("trace", 0, "1 = report per-layer metrics from a traced run")
	workdir := flag.String("workdir", ".bench_build/work", "scratch directory for stores and traces")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace == 1, *workdir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool, workdir string) error {
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if _, err := newWorkload(name); err != nil {
		return err
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	root, err := os.MkdirTemp(workdir, name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(root)

	var total tally
	var res *result
	if traced {
		res, err = runTraced(name, seed, seconds, root, workdir, &total)
	} else {
		res, err = runPlain(name, seed, seconds, root, &total)
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0
	if total.firstErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench: first failure:", total.firstErr)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// setupMedian builds the workload several times, each in a fresh
// directory, closes all but the last and returns it with the median
// set-up time.
func setupMedian(name string, seed int64, seconds float64, root string) (workload, *env, float64, error) {
	var times []float64
	var w workload
	var e *env
	var spent time.Duration
	for i := 0; i < minSetups || (i < maxSetups && spent < setupBudget); i++ {
		if w != nil {
			w.close()
		}
		var err error
		if w, err = newWorkload(name); err != nil {
			return nil, nil, 0, err
		}
		e = &env{seed: seed, seconds: seconds, dir: filepath.Join(root, fmt.Sprintf("setup%d", i))}
		t0 := time.Now()
		if err := w.setup(e); err != nil {
			w.close()
			return nil, nil, 0, fmt.Errorf("setup: %w", err)
		}
		d := time.Since(t0)
		spent += d
		times = append(times, d.Seconds())
	}
	return w, e, median(times), nil
}

func runPlain(name string, seed int64, seconds float64, root string, total *tally) (*result, error) {
	w, e, setupS, err := setupMedian(name, seed, seconds, root)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rss := startRSS()
	ph, err := w.measure(e)
	rssMed := rss.median()
	if err != nil {
		return nil, fmt.Errorf("measure: %w", err)
	}
	total.add(ph.ops)
	total.add(w.check(e))
	p50, p90 := percentile(ph.latMs, 50), percentile(ph.latMs, 90)
	m := map[string]metric{
		"setup_s":                       {setupS, "s"},
		"items_per_s":                   {ph.rate, "1/s"},
		"op_p50_ms":                     {p50, "ms"},
		"op_p90_ms":                     {p90, "ms"},
		"stored_bytes_per_logical_byte": {ph.storedRatio, "ratio"},
		"rss_mb":                        {rssMed, "MB"},
	}
	printSummary(name, seed, m, ph, total)
	return &result{Metrics: m}, nil
}

// printSummary writes every metric of the run by name and unit, the
// workload's per-class metrics included, ahead of the JSON line.
func printSummary(name string, seed int64, m map[string]metric, ph *phase, total *tally) {
	all := map[string]metric{}
	for k, v := range m {
		all[k] = v
	}
	for k, v := range ph.detail {
		all[k] = v
	}
	for k, v := range ph.layers {
		unit, _ := layerUnit(k)
		all[k] = metric{v, unit}
	}
	all["failed_op_frac"] = metric{float64(total.failed) / math.Max(1, float64(total.attempted)), "ratio"}
	all["timed_ops"] = metric{float64(len(ph.latMs)), "count"}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Printf("# workload %s seed %d: %.2fs timed window\n", name, seed, ph.seconds)
	for _, k := range keys {
		fmt.Printf("%-40s %14.6g %s\n", k, all[k].Value, all[k].Unit)
	}
}

// rssEvery is the resident-set sampling period of a timed window.
const rssEvery = 50 * time.Millisecond

// rssSampler samples the process's resident set size every rssEvery until
// stopped. Its median over a window is steadier than the peak, which
// depends on where garbage collections happen to fall.
type rssSampler struct {
	stop, done chan struct{}
	mb         []float64
}

func startRSS() *rssSampler {
	r := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			if mb, err := rssMB(); err == nil {
				r.mb = append(r.mb, mb)
			}
			select {
			case <-r.stop:
				return
			case <-t.C:
			}
		}
	}()
	return r
}

// median stops the sampler, waits for it and returns the median sample.
func (r *rssSampler) median() float64 {
	close(r.stop)
	<-r.done
	return median(r.mb)
}

// rssMB reads the resident set size from /proc/self/statm.
func rssMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0, fmt.Errorf("short /proc/self/statm: %q", b)
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20), err
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

func median(v []float64) float64 { return percentile(v, 50) }

// sliceRate is the interquartile mean, over the whole one-second slices
// of a window, of the items completed in each slice: slices hit by a
// stall of the machine fall outside the middle half. done[i] is when
// operation i finished, in seconds from the window's start; each carries
// perOp items.
func sliceRate(done []float64, perOp, window float64) float64 {
	n := int(window)
	if n < 1 {
		n = 1
	}
	per := make([]float64, n)
	for _, t := range done {
		if s := int(t); s < n {
			per[s] += perOp
		}
	}
	sort.Float64s(per)
	return mean(per[n/4 : n-n/4])
}

// percentile is the nearest-rank percentile of v (NaN when v is empty).
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// layerMetrics lists every per-layer metric a traced run reports, with
// its unit. A layer a workload does not run reports 0.
var layerMetrics = []struct{ name, unit string }{
	{"engine.logdnn_self_s", "s"},
	{"engine.flush_s", "s"},
	{"engine.read_frac", "ratio"},
	{"nn.forward_s", "s"},
	{"nn.rerun_s", "s"},
	{"colstore.put_encode_s", "s"},
	{"colstore.put_hash_s", "s"},
	{"colstore.put_append_s", "s"},
	{"colstore.partition_write_s", "s"},
	{"colstore.dedup_frac", "ratio"},
	{"colstore.delta_chunks", "count"},
	{"colstore.pagein_s", "s"},
	{"colstore.chunk_read_s", "s"},
	{"colstore.pageins_per_query", "count"},
	{"colstore.disk_read_bytes_per_query", "B"},
	{"colstore.evictions_per_query", "count"},
	{"codec.ratio", "ratio"},
	{"codec.compress_s", "s"},
	{"cas.weight_new_bytes", "B"},
	{"metadata.save_s", "s"},
	{"cost.read_rel_err_p50", "ratio"},
	{"cost.rerun_rel_err_p50", "ratio"},
	{"cost.wrong_pick_frac", "ratio"},
	{"nindex.builds", "count"},
	{"nindex.hit_frac", "ratio"},
	{"nindex.build_s", "s"},
	{"nindex.probe_s", "s"},
	{"sample.answered_frac", "ratio"},
	{"sample.query_s", "s"},
	{"wal.fsyncs_per_batch", "count"},
	{"wal.bytes_per_row", "B"},
	{"fs.sync_s", "s"},
	{"fs.write_bytes", "B"},
	{"server.ingest_s", "s"},
	{"server.read_s", "s"},
	{"client.codec_s", "s"},
	{"cluster.shard_call_s", "s"},
	{"cluster.merge_self_s", "s"},
	{"cluster.hedges_fired", "count"},
	{"pipeline.rerun_s", "s"},
	{"parallel.log_speedup_2v1", "ratio"},
	{"trace.overhead_frac", "ratio"},
}

func layerUnit(name string) (string, bool) {
	for _, lm := range layerMetrics {
		if lm.name == name {
			return lm.unit, true
		}
	}
	return "", false
}

// runTraced measures the workload twice on fresh set-ups: untraced, then
// with the span recorder and the timing wrappers. The per-layer metrics
// come from the traced window; trace.overhead_frac compares the items_per_s
// of the two. The write-path layers come from traced dnn_log windows at
// GOMAXPROCS 2 and 1, whose rates give parallel.log_speedup_2v1. dnn_log
// uses its own traced window and adds one at GOMAXPROCS 1. diag_query,
// whose store holds a VGG16 checkpoint logged under the same
// configuration, adds both after its own windows, each logging the
// dnnTimedCkpts children items_per_s covers, so that a BENCHMARK.json
// without dnn_log still reports every layer.
func runTraced(name string, seed int64, seconds float64, root, workdir string, total *tally) (*result, error) {
	window := func(wl, tag string, secs float64, rec *recorder) (*phase, error) {
		w, err := newWorkload(wl)
		if err != nil {
			return nil, err
		}
		defer w.close()
		e := &env{seed: seed, seconds: secs, dir: filepath.Join(root, tag), rec: rec}
		if err := w.setup(e); err != nil {
			return nil, fmt.Errorf("%s setup: %w", tag, err)
		}
		ph, err := w.measure(e)
		if err != nil {
			return nil, fmt.Errorf("%s measure: %w", tag, err)
		}
		total.add(ph.ops)
		total.add(w.check(e))
		return ph, nil
	}
	plain, err := window(name, "untraced", seconds, nil)
	if err != nil {
		return nil, err
	}
	rec := newRecorder()
	traced, err := window(name, "traced", seconds, rec)
	if err != nil {
		return nil, err
	}
	if err := rec.write(filepath.Join(workdir, "traces", fmt.Sprintf("%s-seed%d.json", name, seed))); err != nil {
		return nil, err
	}
	traced.layer("trace.overhead_frac", plain.rate/traced.rate-1)
	traced.detail["trace.spans"] = metric{float64(len(rec.finish(0).spans)), "count"}
	// logTwo is the traced dnn_log window at GOMAXPROCS 2; logSecs is the
	// window length of both dnn_log windows.
	var logTwo *phase
	logSecs := seconds
	switch name {
	case "dnn_log":
		logTwo = traced
	case "diag_query":
		logSecs = 0
		if logTwo, err = window("dnn_log", "traced-log", logSecs, newRecorder()); err != nil {
			return nil, err
		}
		for k, v := range logTwo.layers {
			if _, ok := traced.layers[k]; !ok {
				traced.layer(k, v)
			}
		}
	}
	if logTwo != nil {
		prev := runtime.GOMAXPROCS(1)
		one, err := window("dnn_log", "traced-log-1cpu", logSecs, newRecorder())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			return nil, err
		}
		traced.layer("parallel.log_speedup_2v1", logTwo.rate/one.rate)
	}
	// A layer the workload does not run reports 0.
	m := map[string]metric{}
	for _, lm := range layerMetrics {
		m[lm.name] = metric{traced.layers[lm.name], lm.unit}
	}
	printSummary(name+" (traced)", seed, m, traced, total)
	return &result{Metrics: m}, nil
}
