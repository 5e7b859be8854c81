package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mistique/client"
	"mistique/internal/cluster"
	"mistique/internal/faultfs"
	"mistique/internal/obs"
)

// The span recorder of a traced run. Every benchmark call is an op span;
// the timing wrappers below (filesystem, HTTP handler, HTTP round-tripper,
// cluster Backend) record child spans under it. Spans stay in memory and
// are written out as JSON when the run ends. A nil *recorder records
// nothing, so untraced runs install no wrappers and pay nothing.

// span is one timed interval. Times are nanoseconds since the recorder
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Lane   int    `json:"lane"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Bytes  int64  `json:"bytes,omitempty"`
	// Deltas holds, on op spans, the changes of the System.Metrics()
	// counters and histogram sums across the op.
	Deltas map[string]float64 `json:"deltas,omitempty"`
}

func (s span) dur() float64 { return float64(s.End-s.Start) / 1e9 }

// lanes is the number of client goroutines a workload may run.
const lanes = 2

type recorder struct {
	t0    time.Time
	next  atomic.Int64
	mu    sync.Mutex
	spans []span
	// open is the innermost open op span of each lane. Filesystem calls
	// carry no context, so they attach to lane 0's open op (the writer in
	// live_ingest, the only lane elsewhere) and else to lane 1's.
	open [lanes]int64
	// metrics returns the snapshot op spans diff; nil skips the deltas.
	metrics func() *obs.Snapshot
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// opSpan is an open op span.
type opSpan struct {
	r      *recorder
	s      span
	before *obs.Snapshot
	prev   int64
}

// op opens an op span on a lane and returns it with a context carrying
// its id, so wrappers deeper in the call attach to it.
func (r *recorder) op(ctx context.Context, lane int, layer, name string) (*opSpan, context.Context) {
	if r == nil {
		return nil, ctx
	}
	o := &opSpan{r: r, s: span{ID: r.next.Add(1), Lane: lane, Layer: layer, Name: name}}
	if r.metrics != nil {
		o.before = r.metrics()
	}
	r.mu.Lock()
	o.prev, r.open[lane] = r.open[lane], o.s.ID
	r.mu.Unlock()
	o.s.Start = r.now()
	return o, context.WithValue(ctx, spanKey{}, o.s.ID)
}

// end closes the span.
func (o *opSpan) end() {
	if o == nil {
		return
	}
	r := o.r
	o.s.End = r.now()
	if o.before != nil {
		o.s.Deltas = snapshotDelta(o.before, r.metrics())
	}
	r.mu.Lock()
	r.open[o.s.Lane] = o.prev
	r.spans = append(r.spans, o.s)
	r.mu.Unlock()
}

type spanKey struct{}

func spanFrom(ctx context.Context) int64 {
	id, _ := ctx.Value(spanKey{}).(int64)
	return id
}

// fsParent is the op span a filesystem call attaches to.
func (r *recorder) fsParent() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, id := range r.open {
		if id != 0 {
			return id
		}
	}
	return 0
}

// child records a finished child span.
func (r *recorder) child(parent int64, layer, name string, start int64, bytes int64) {
	r.add(span{ID: r.next.Add(1), Parent: parent, Layer: layer, Name: name, Start: start, End: r.now(), Bytes: bytes})
}

// write dumps every span as JSON.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// snapshotDelta returns the non-zero changes of every counter and every
// histogram's count and sum between two snapshots.
func snapshotDelta(a, b *obs.Snapshot) map[string]float64 {
	d := map[string]float64{}
	for k, v := range b.Counters {
		if x := v - a.Counters[k]; x != 0 {
			d[k] = float64(x)
		}
	}
	for k, h := range b.Histograms {
		ha := a.Histograms[k]
		if h.Count != ha.Count {
			d[k+"_count"] = float64(h.Count - ha.Count)
			d[k+"_sum"] = h.Sum - ha.Sum
		}
	}
	return d
}

// ---- analysis ----

// spanSet indexes a finished recording.
type spanSet struct {
	spans    []span
	children map[int64][]span
}

// mark is the recorder's clock, for finish (0 on a nil recorder).
func (r *recorder) mark() int64 {
	if r == nil {
		return 0
	}
	return r.now()
}

// finish indexes the spans that started at or after from.
func (r *recorder) finish(from int64) *spanSet {
	r.mu.Lock()
	defer r.mu.Unlock()
	ss := &spanSet{children: map[int64][]span{}}
	for _, s := range r.spans {
		if s.Start < from {
			continue
		}
		ss.spans = append(ss.spans, s)
		if s.Parent != 0 {
			ss.children[s.Parent] = append(ss.children[s.Parent], s)
		}
	}
	return ss
}

// covered is the time in seconds the children of s cover within s.
func (ss *spanSet) covered(s span, layer string) float64 {
	var iv [][2]int64
	for _, c := range ss.children[s.ID] {
		if layer != "" && c.Layer != layer {
			continue
		}
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	total += curHi - curLo
	return float64(total) / 1e9
}

// ops returns the op spans of a layer whose name has the given prefix.
func (ss *spanSet) ops(layer, prefix string) []span {
	var out []span
	for _, s := range ss.spans {
		if s.Parent == 0 && s.Layer == layer && strings.HasPrefix(s.Name, prefix) {
			out = append(out, s)
		}
	}
	return out
}

// sum adds the durations and bytes of every span of a layer whose name
// has the given prefix.
func (ss *spanSet) sum(layer, prefix string) (secs float64, bytes int64, n int) {
	for _, s := range ss.spans {
		if s.Layer == layer && strings.HasPrefix(s.Name, prefix) {
			secs += s.dur()
			bytes += s.Bytes
			n++
		}
	}
	return secs, bytes, n
}

// meanDur is the mean duration of spans in seconds.
func meanDur(spans []span) float64 {
	var t float64
	for _, s := range spans {
		t += s.dur()
	}
	return ratio(t, float64(len(spans)))
}

// selfMean is the mean over spans of (duration - time covered by children
// of the given layer).
func (ss *spanSet) selfMean(spans []span, childLayer string) float64 {
	if len(spans) == 0 {
		return 0
	}
	var t float64
	for _, s := range spans {
		t += s.dur() - ss.covered(s, childLayer)
	}
	return t / float64(len(spans))
}

// childMean is the mean over spans of the time children of a layer cover.
func (ss *spanSet) childMean(spans []span, childLayer string) float64 {
	if len(spans) == 0 {
		return 0
	}
	var t float64
	for _, s := range spans {
		t += ss.covered(s, childLayer)
	}
	return t / float64(len(spans))
}

// ---- timing wrappers ----

// timingFS wraps the store's filesystem and records every write, sync,
// rename and directory sync as an "fs" span.
type timingFS struct {
	inner faultfs.FS
	rec   *recorder
}

func fileKind(path string) string {
	base := filepath.Base(path)
	switch {
	case strings.HasPrefix(base, "partition_"):
		return "partition"
	case strings.HasPrefix(base, "MANIFEST"):
		return "manifest"
	case strings.Contains(base, ".wal"):
		return "wal"
	case strings.HasPrefix(base, "metadata.json"):
		return "catalog"
	}
	switch filepath.Base(filepath.Dir(path)) {
	case "cas", "nindex", "sample":
		return filepath.Base(filepath.Dir(path))
	}
	return "other"
}

func (t *timingFS) time(op, path string, bytes int64, start int64) {
	t.rec.child(t.rec.fsParent(), "fs", op+":"+fileKind(path), start, bytes)
}

func (t *timingFS) CreateTemp(dir, pattern string) (faultfs.File, error) {
	f, err := t.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &timingFile{f: f, fs: t}, nil
}

func (t *timingFS) OpenAppend(name string) (faultfs.File, error) {
	f, err := t.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timingFile{f: f, fs: t}, nil
}

func (t *timingFS) Rename(oldpath, newpath string) error {
	s := t.rec.now()
	err := t.inner.Rename(oldpath, newpath)
	t.time("rename", newpath, 0, s)
	return err
}

func (t *timingFS) Remove(name string) error { return t.inner.Remove(name) }

func (t *timingFS) SyncDir(dir string) error {
	s := t.rec.now()
	err := t.inner.SyncDir(dir)
	t.time("syncdir", dir, 0, s)
	return err
}

type timingFile struct {
	f  faultfs.File
	fs *timingFS
}

func (f *timingFile) Name() string { return f.f.Name() }

func (f *timingFile) Write(p []byte) (int, error) {
	s := f.fs.rec.now()
	n, err := f.f.Write(p)
	f.fs.time("write", f.f.Name(), int64(n), s)
	return n, err
}

func (f *timingFile) Sync() error {
	s := f.fs.rec.now()
	err := f.f.Sync()
	f.fs.time("sync", f.f.Name(), 0, s)
	return err
}

func (f *timingFile) Close() error { return f.f.Close() }

// spanHeader carries the round-trip span id to the server's handler.
const spanHeader = "X-Perfbench-Span"

// traceHandler records each request the server handles as a "server"
// span named after its route, under the round-trip span that sent it.
func traceHandler(rec *recorder, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		s := rec.now()
		h.ServeHTTP(w, req)
		parent, _ := strconv.ParseInt(req.Header.Get(spanHeader), 10, 64)
		rec.child(parent, "server", route(req.URL.Path), s, 0)
	})
}

// route names an API path by its operation.
func route(p string) string {
	switch {
	case strings.HasPrefix(p, "/api/v1/ingest/"):
		return "ingest"
	case strings.HasPrefix(p, "/api/v1/models/"):
		return "read:catalog"
	}
	return "read:" + strings.TrimPrefix(p, "/api/v1/")
}

// traceTransport records each HTTP exchange, up to the close of the
// response body, as a "client" round-trip span.
type traceTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *traceTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	id := t.rec.next.Add(1)
	parent := spanFrom(req.Context())
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
	s := t.rec.now()
	resp, err := t.inner.RoundTrip(req)
	done := func() {
		t.rec.add(span{ID: id, Parent: parent, Layer: "client", Name: "roundtrip", Start: s, End: t.rec.now()})
	}
	if err != nil {
		done()
		return nil, err
	}
	resp.Body = &endOnClose{ReadCloser: resp.Body, done: done}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *endOnClose) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}

// newClient builds a client for base; with a recorder its requests go
// through the tracing round-tripper. Retries are off so every failure
// shows in the failure count.
func newClient(base string, rec *recorder) (*client.Client, error) {
	opts := []client.Option{client.WithMaxRetries(0)}
	if rec != nil {
		tr := http.DefaultTransport.(*http.Transport).Clone()
		opts = append(opts, client.WithHTTPClient(&http.Client{Transport: &traceTransport{inner: tr, rec: rec}}))
	}
	return client.New(base, opts...)
}

// traceBackend records every router sub-request as a "cluster" span and
// passes its id down, so the round-trip spans nest under it.
type traceBackend struct {
	inner cluster.Backend
	rec   *recorder
}

func (b *traceBackend) wrap(ctx context.Context, name string, fn func(ctx context.Context) error) {
	id := b.rec.next.Add(1)
	parent := spanFrom(ctx)
	s := b.rec.now()
	err := fn(context.WithValue(ctx, spanKey{}, id))
	if err != nil {
		name += ":error"
	}
	b.rec.add(span{ID: id, Parent: parent, Layer: "cluster", Name: name, Start: s, End: b.rec.now()})
}

func (b *traceBackend) Intermediate(ctx context.Context, model, interm string) (out *client.IntermInfo, err error) {
	b.wrap(ctx, "shard_call:intermediate", func(ctx context.Context) error {
		out, err = b.inner.Intermediate(ctx, model, interm)
		return err
	})
	return out, err
}

func (b *traceBackend) FilterRowsRange(ctx context.Context, model, interm, column, op string, bound float64, from, to int) (out []int, err error) {
	b.wrap(ctx, "shard_call:filter", func(ctx context.Context) error {
		out, err = b.inner.FilterRowsRange(ctx, model, interm, column, op, bound, from, to)
		return err
	})
	return out, err
}

func (b *traceBackend) TopKRange(ctx context.Context, model, interm, column string, k, from, to int) (out []client.TopKEntry, err error) {
	b.wrap(ctx, "shard_call:topk", func(ctx context.Context) error {
		out, err = b.inner.TopKRange(ctx, model, interm, column, k, from, to)
		return err
	})
	return out, err
}

func (b *traceBackend) GetRows(ctx context.Context, model, interm string, cols []string, from, to int) (out *client.RowsResponse, err error) {
	b.wrap(ctx, "shard_call:rows", func(ctx context.Context) error {
		out, err = b.inner.GetRows(ctx, model, interm, cols, from, to)
		return err
	})
	return out, err
}

func (b *traceBackend) Ready(ctx context.Context) (resp *client.ReadyResponse, ready bool, err error) {
	return b.inner.Ready(ctx)
}
