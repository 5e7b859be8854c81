package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"mistique"
	"mistique/client"
	"mistique/internal/cluster"
	"mistique/internal/cost"
	"mistique/internal/obs"
	"mistique/internal/server"
)

// live_ingest: the served system with its load in the same process. A
// writer goroutine sends fixed activation-shaped batches through
// client.IngestRows (each acknowledged after its WAL fsync) and calls
// System.Flush every liveFlushEvery batches; the server never flushes a
// stream by itself. A reader goroutine cycles through sampled and exact
// reads, part of them through a cluster.Router over two loopback shard
// servers that serve the same System. The data fits the buffer pool.
const (
	liveModel       = "live"
	liveInterm      = "acts"
	liveBatchRows   = 256
	liveCols        = 64
	liveFlushEvery  = 16 // batches between System.Flush calls
	liveSeedBatches = 32 // batches ingested and flushed in set-up
	liveMaxError    = 0.01
	liveTopK        = 10
	liveRowsRead    = 256
	liveRouterBlock = 16384 // router placement grain in rows
	liveChecks      = 8
)

type liveIngest struct {
	sys     *mistique.System
	dir     string
	cols    []string
	seed    int64
	servers []*http.Server
	done    sync.WaitGroup
	writer  *client.Client
	reader  *client.Client
	urls    []string
	router  *cluster.Router
	// routerObs is the router's own registry.
	routerObs *obs.Registry
	// batches is the number of acknowledged batches (set-up's included).
	batches int
}

// liveBatch is batch b of the stream: ReLU-like activations, about half
// zeros, with a per-column scale, generated from (seed, b) alone.
func liveBatch(seed int64, b int) [][]float32 {
	rng := rand.New(rand.NewSource(seed<<24 ^ int64(b)))
	rows := make([][]float32, liveBatchRows)
	for i := range rows {
		r := make([]float32, liveCols)
		for j := range r {
			v := rng.NormFloat64()*(0.5+0.25*float64(j%8)) + 0.25*float64(j%5) - 0.5
			r[j] = float32(math.Max(0, v))
		}
		rows[i] = r
	}
	return rows
}

func (w *liveIngest) setup(e *env) error {
	w.dir, w.seed = e.dir, e.seed
	w.cols = make([]string, liveCols)
	for j := range w.cols {
		w.cols[j] = fmt.Sprintf("u%d", j)
	}
	cfg := mistique.Config{}
	cfg.Store.FS = fsFor(e.rec)
	var err error
	if w.sys, err = openSystem(e.dir, cfg); err != nil {
		return err
	}
	for ; w.batches < liveSeedBatches; w.batches++ {
		if _, err := w.sys.IngestRows(liveModel, liveInterm, w.cols, liveBatch(w.seed, w.batches)); err != nil {
			return err
		}
	}
	if err := w.sys.Flush(); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		var h http.Handler = server.New(w.sys, server.Config{ShardName: fmt.Sprintf("s%d", i)}).Handler()
		if e.rec != nil {
			h = traceHandler(e.rec, h)
		}
		hs := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
		w.servers = append(w.servers, hs)
		w.done.Add(1)
		go func() {
			defer w.done.Done()
			hs.Serve(ln)
		}()
		w.urls = append(w.urls, "http://"+ln.Addr().String())
	}
	if w.writer, err = newClient(w.urls[0], e.rec); err != nil {
		return err
	}
	if w.reader, err = newClient(w.urls[1], e.rec); err != nil {
		return err
	}
	w.routerObs = obs.New()
	w.router, err = newRouter(w.urls, e.rec, w.routerObs)
	return err
}

// newRouter builds a router over the shard URLs with health probes off
// (membership stays all-healthy; the shards never fail here).
func newRouter(urls []string, rec *recorder, reg *obs.Registry) (*cluster.Router, error) {
	var shards []cluster.Shard
	for i, u := range urls {
		c, err := newClient(u, rec)
		if err != nil {
			return nil, err
		}
		var be cluster.Backend = cluster.NewHTTPBackend(c)
		if rec != nil {
			be = &traceBackend{inner: be, rec: rec}
		}
		shards = append(shards, cluster.Shard{ID: cluster.ShardID(fmt.Sprintf("s%d", i)), Backend: be})
	}
	return cluster.New(shards, cluster.Config{BlockRows: liveRouterBlock, DisableProbes: true, Obs: reg})
}

func (w *liveIngest) close() {
	if w.router != nil {
		w.router.Close()
	}
	for _, hs := range w.servers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		hs.Shutdown(ctx)
		cancel()
	}
	w.done.Wait()
	if w.sys != nil {
		w.sys.Close()
	}
}

// lanes of a live_ingest run.
const (
	writerLane = 0
	readerLane = 1
)

// measure runs the writer and the reader side by side for the window.
// items_per_s is the writer's acknowledged rows; op_p50_ms and op_p90_ms
// are the reader's rounds (see readLoop). The writer's ack latencies and
// the single reads are in the summary.
func (w *liveIngest) measure(e *env) (*phase, error) {
	ph := newPhase()
	if e.rec != nil {
		e.rec.metrics = w.sys.Metrics
	}
	before := w.sys.Metrics()
	routerBefore := w.routerObs.Snapshot()
	from := e.rec.mark()
	window := time.Duration(e.seconds * float64(time.Second))
	start := time.Now()

	var ackMs, flushMs, acked []float64
	var wops tally
	firstBatch := w.batches
	var werr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for time.Since(start) < window {
			rows := liveBatch(w.seed, w.batches)
			op, ctx := e.rec.op(context.Background(), writerLane, "client", "ingest")
			t0 := time.Now()
			resp, err := w.writer.IngestRows(ctx, liveModel, liveInterm, w.cols, rows)
			ms := float64(time.Since(t0)) / 1e6
			op.end()
			if err == nil && resp.Rows != int64(w.batches+1)*liveBatchRows {
				err = fmt.Errorf("batch %d acknowledged %d rows in total, want %d", w.batches, resp.Rows, (w.batches+1)*liveBatchRows)
			}
			wops.note(err)
			if err != nil {
				werr = err
				return
			}
			w.batches++
			ackMs = append(ackMs, ms)
			acked = append(acked, time.Since(start).Seconds())
			if (w.batches-firstBatch)%liveFlushEvery == 0 {
				op, _ := e.rec.op(context.Background(), writerLane, "engine", "flush")
				t0 := time.Now()
				err := w.sys.Flush()
				flushMs = append(flushMs, float64(time.Since(t0))/1e6)
				op.end()
				wops.note(err)
				if err != nil {
					werr = err
					return
				}
			}
		}
	}()

	roundMs, readMs, rops := w.readLoop(e, start, window)
	wg.Wait()
	ingestSecs := time.Since(start).Seconds()
	// The writer's last Flush makes every acknowledged row durable and
	// visible to exact reads.
	err := w.sys.Flush()
	ph.ops.note(err)
	ph.ops.add(wops)
	ph.ops.add(rops)
	if werr != nil {
		return nil, fmt.Errorf("writer: %w", werr)
	}
	if err != nil {
		return nil, err
	}
	ph.seconds = ingestSecs
	rows := float64(w.batches-firstBatch) * liveBatchRows
	ph.rate = sliceRate(acked, liveBatchRows, e.seconds)
	ph.latMs = roundMs
	onDisk, err := dirBytes(w.dir)
	if err != nil {
		return nil, err
	}
	ph.storedRatio = float64(onDisk) / (float64(w.batches) * liveBatchRows * liveCols * 4)
	summary := func(name string, v float64, unit string) { ph.detail[name] = metric{v, unit} }
	summary("ingest_rows_per_s", ph.rate, "1/s")
	summary("ingest_ack_p50_ms", percentile(ackMs, 50), "ms")
	summary("ingest_ack_p90_ms", percentile(ackMs, 90), "ms")
	summary("live_read_p50_ms", percentile(readMs, 50), "ms")
	summary("live_read_p90_ms", percentile(readMs, 90), "ms")
	summary("ingest_batches", float64(len(ackMs)), "count")
	summary("live_reads", float64(len(readMs)), "count")
	summary("flush_first_ms", first(flushMs), "ms")
	summary("flush_last_ms", last(flushMs), "ms")
	if e.rec == nil {
		return ph, nil
	}
	d := snapshotDelta(before, w.sys.Metrics())
	rd := snapshotDelta(routerBefore, w.routerObs.Snapshot())
	ss := e.rec.finish(from)
	nb := float64(len(ackMs))
	flushes := ss.ops("engine", "flush")
	ph.layer("engine.flush_s", meanDur(flushes))
	ph.layer("metadata.save_s", ratio(d["mistique_catalog_save_seconds_sum"], float64(len(flushes))))
	nindexMetrics(ph, d)
	sq, fb := d["mistique_sample_queries_total"], d["mistique_sample_fallbacks_total"]
	ph.layer("sample.answered_frac", ratio(sq, sq+fb))
	ph.layer("sample.query_s", ratio(d["mistique_query_sample_seconds_sum"], d["mistique_query_sample_seconds_count"]))
	_, _, walSyncs := ss.sum("fs", "sync:wal")
	ph.layer("wal.fsyncs_per_batch", float64(walSyncs)/nb)
	ph.layer("wal.bytes_per_row", d["mistique_wal_append_bytes_total"]/rows)
	fsSync, _, _ := ss.sum("fs", "sync:")
	_, fsBytes, _ := ss.sum("fs", "write:")
	ph.layer("fs.sync_s", fsSync/nb)
	ph.layer("fs.write_bytes", float64(fsBytes)/nb)
	srvIngest, _, ni := ss.sum("server", "ingest")
	srvRead, _, nr := ss.sum("server", "read:")
	ph.layer("server.ingest_s", ratio(srvIngest, float64(ni)))
	ph.layer("server.read_s", ratio(srvRead, float64(nr)))
	clientOps := ss.ops("client", "")
	ph.layer("client.codec_s", ss.selfMean(clientOps, "client"))
	routed := ss.ops("cluster", "")
	ph.layer("cluster.shard_call_s", ss.childMean(routed, "cluster"))
	ph.layer("cluster.merge_self_s", ss.selfMean(routed, "cluster"))
	ph.layer("cluster.hedges_fired", rd["mistique_cluster_hedges_fired_total"])
	return ph, nil
}

func first(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[0]
}

func last(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}

// liveRead is one read of the reader lane, on column col; GetRows reads
// liveRowsRead rows of the first eight columns from row from.
type liveRead struct {
	layer, name string
	run         func(ctx context.Context, col string, from int) error
}

// reads is one round of the reader lane: a sampled COL_DIST and top-k (1%
// bound) via a client to one shard server, exact TopK and GetRows through
// the router, and the same exact TopK and GetRows via the client. One of
// each is an assumption of this benchmark, not a measured mix.
func (w *liveIngest) reads() []liveRead {
	return []liveRead{
		{"client", "coldist", func(ctx context.Context, col string, _ int) error {
			_, err := w.reader.ColDist(ctx, liveModel, liveInterm, col, liveMaxError)
			return err
		}},
		{"client", "approx_topk", func(ctx context.Context, col string, _ int) error {
			_, err := w.reader.ApproxTopK(ctx, liveModel, liveInterm, col, liveTopK, liveMaxError)
			return err
		}},
		{"cluster", "topk", func(ctx context.Context, col string, _ int) error {
			_, err := w.router.TopK(ctx, liveModel, liveInterm, col, liveTopK)
			return err
		}},
		{"cluster", "rows", func(ctx context.Context, _ string, from int) error {
			_, err := w.router.GetRows(ctx, liveModel, liveInterm, w.cols[:8], from, from+liveRowsRead)
			return err
		}},
		{"client", "topk", func(ctx context.Context, col string, _ int) error {
			_, err := w.reader.TopK(ctx, liveModel, liveInterm, col, liveTopK)
			return err
		}},
		{"client", "rows", func(ctx context.Context, _ string, from int) error {
			_, err := w.reader.GetRows(ctx, liveModel, liveInterm, w.cols[:8], from, from+liveRowsRead)
			return err
		}},
	}
}

// readLoop is the reader lane. It runs rounds of reads until the window
// ends and returns the latency of each complete round, in which every
// read succeeded, and of each single read. A round's latency sums six
// reads of very different cost, so its percentiles do not sit on the edge
// between two kinds of read.
func (w *liveIngest) readLoop(e *env, start time.Time, window time.Duration) (roundMs, readMs []float64, t tally) {
	rng := rand.New(rand.NewSource(e.seed + 3))
	reads := w.reads()
	for time.Since(start) < window {
		var round float64
		ok := true
		for _, r := range reads {
			col := w.cols[rng.Intn(len(w.cols))]
			from := rng.Intn(liveSeedBatches*liveBatchRows - liveRowsRead)
			op, ctx := e.rec.op(context.Background(), readerLane, r.layer, r.name)
			t0 := time.Now()
			err := r.run(ctx, col, from)
			ms := float64(time.Since(t0)) / 1e6
			op.end()
			t.note(err)
			if err != nil {
				ok = false
				continue
			}
			readMs = append(readMs, ms)
			round += ms
		}
		if ok {
			roundMs = append(roundMs, round)
		}
	}
	return roundMs, readMs, t
}

// check runs after the final Flush: the rows exact reads see equal the
// acknowledged rows, a seeded sample of batches reads back exactly, a
// fresh router's TopK equals the direct TopK, and the 1% COL_DIST bound
// covers the exact mean.
func (w *liveIngest) check(e *env) tally {
	var t tally
	acked := w.batches * liveBatchRows
	var err error
	if it, ok := w.sys.Metadata().IntermSnapshot(liveModel, liveInterm); !ok || it.Rows != acked {
		err = fmt.Errorf("visible rows %d, acknowledged %d", it.Rows, acked)
	}
	t.note(err)
	rng := rand.New(rand.NewSource(e.seed + 4))
	for i := 0; i < liveChecks; i++ {
		b := rng.Intn(w.batches)
		got, err := w.sys.GetRows(liveModel, liveInterm, w.cols, b*liveBatchRows, (b+1)*liveBatchRows)
		if err == nil {
			want := liveBatch(w.seed, b)
			for r := range want {
				if err = sameFloats(fmt.Sprintf("batch %d row %d", b, r), got.Row(r), want[r]); err != nil {
					break
				}
			}
		}
		t.note(err)
	}
	router, err := newRouter(w.urls, nil, nil)
	t.note(err)
	if err == nil {
		defer router.Close()
		for i := 0; i < liveChecks/2; i++ {
			col := w.cols[rng.Intn(len(w.cols))]
			t.note(w.routerMatchesDirect(router, col))
			t.note(w.colDistCovers(col))
		}
	}
	return t
}

func (w *liveIngest) routerMatchesDirect(router *cluster.Router, col string) error {
	got, err := router.TopK(context.Background(), liveModel, liveInterm, col, liveTopK)
	if err != nil {
		return err
	}
	want, err := w.sys.TopK(liveModel, liveInterm, col, liveTopK)
	if err != nil {
		return err
	}
	if len(got.Entries) != len(want) {
		return fmt.Errorf("router TopK %s: %d entries, direct %d", col, len(got.Entries), len(want))
	}
	for i := range want {
		if got.Entries[i].Row != want[i].Row || math.Float32bits(got.Entries[i].Value) != math.Float32bits(want[i].Value) {
			return fmt.Errorf("router TopK %s rank %d: %+v, direct %+v", col, i, got.Entries[i], want[i])
		}
	}
	return nil
}

func (w *liveIngest) colDistCovers(col string) error {
	cd, err := w.sys.ColDist(liveModel, liveInterm, col, liveMaxError)
	if err != nil {
		return err
	}
	res, err := w.sys.Fetch(liveModel, liveInterm, []string{col}, 0, cost.Read)
	if err != nil {
		return err
	}
	var sum float64
	for _, v := range res.Data.Col(0) {
		sum += float64(v)
	}
	exact := sum / float64(res.Data.Rows)
	if math.Abs(cd.Mean-exact) > cd.MeanBound {
		return fmt.Errorf("COL_DIST %s: mean %v ± %v (%s) misses the exact mean %v", col, cd.Mean, cd.MeanBound, cd.Strategy, exact)
	}
	return nil
}
