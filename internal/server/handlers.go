package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"mistique"
	"mistique/client"
	"mistique/internal/colstore"
	"mistique/internal/cost"
	"mistique/internal/metadata"
	"mistique/internal/tensor"
)

// maxBodyBytes bounds request bodies; query descriptions are tiny, so a
// megabyte of headroom is generous and keeps a hostile body from growing
// the heap. An ingest batch must fit too: split larger batches.
const maxBodyBytes = 1 << 20

// decodeBody strictly decodes the JSON request body into dst: unknown
// fields and trailing garbage are 400s, a body over maxBodyBytes (the
// cap admitted puts on it) is a 413.
func decodeBody(r *http.Request, dst any) error {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return &apiError{status: http.StatusRequestEntityTooLarge,
				msg: fmt.Sprintf("request body over the %d-byte limit", tooLarge.Limit)}
		}
		return badRequest("bad request body: %v", err)
	}
	if dec.More() {
		return badRequest("bad request body: trailing data after JSON value")
	}
	return nil
}

// modelInfo converts a catalog model to its wire form.
func modelInfo(m *metadata.Model, interms []metadata.Interm) client.ModelInfo {
	info := client.ModelInfo{
		Name:          m.Name,
		Kind:          string(m.Kind),
		TotalExamples: m.TotalExamples,
		ModelLoadSecs: m.ModelLoadSecs,
	}
	for _, st := range m.Stages {
		info.Stages = append(info.Stages, client.StageInfo{Name: st.Name, Index: st.Index, ExecSeconds: st.ExecSeconds})
	}
	for i := range interms {
		info.Intermediates = append(info.Intermediates, intermInfo(&interms[i]))
	}
	return info
}

func intermInfo(it *metadata.Interm) client.IntermInfo {
	return client.IntermInfo{
		Name:         it.Name,
		StageIndex:   it.StageIndex,
		Columns:      it.Columns,
		Rows:         it.Rows,
		Materialized: it.Materialized,
		QuantScheme:  it.QuantScheme,
		StoredBytes:  it.StoredBytes,
		QueryCount:   it.QueryCount,
	}
}

// matrixRows converts a Dense matrix to the row-major wire form. The
// copy through client.F32 also keeps the encoder off the matrix's
// backing array.
func matrixRows(m *tensor.Dense) [][]client.F32 {
	rows := make([][]client.F32, m.Rows)
	for i := range rows {
		rows[i] = wireRow(m.Row(i))
	}
	return rows
}

func wireRow(src []float32) []client.F32 {
	row := make([]client.F32, len(src))
	for j, v := range src {
		row[j] = client.F32(v)
	}
	return row
}

func (s *Server) handleModels(r *http.Request) (any, error) {
	db := s.sys.Metadata()
	resp := client.ModelsResponse{Models: []client.ModelInfo{}}
	for _, name := range db.Models() {
		m := db.Model(name)
		if m == nil {
			continue
		}
		resp.Models = append(resp.Models, modelInfo(m, db.IntermSnapshots(name)))
	}
	return resp, nil
}

func (s *Server) handleModel(r *http.Request) (any, error) {
	name := r.PathValue("model")
	db := s.sys.Metadata()
	m := db.Model(name)
	if m == nil {
		return nil, notFound("unknown model %q", name)
	}
	return modelInfo(m, db.IntermSnapshots(name)), nil
}

func (s *Server) handleLineage(r *http.Request) (any, error) {
	name := r.PathValue("model")
	chain, err := s.sys.Lineage(name)
	if err != nil {
		return nil, err
	}
	resp := client.LineageResponse{Model: name, Versions: []client.LineageEntry{}}
	for _, e := range chain {
		resp.Versions = append(resp.Versions, client.LineageEntry{
			Model:          e.Model,
			Parent:         e.Parent,
			Kind:           e.Kind,
			Intermediates:  e.Intermediates,
			StoredBytes:    e.StoredBytes,
			MaxDeltaDepth:  e.MaxDeltaDepth,
			WeightBytes:    e.WeightBytes,
			WeightNewBytes: e.WeightNewBytes,
			WeightDepth:    e.WeightDepth,
		})
	}
	return resp, nil
}

func (s *Server) handleIntermediate(r *http.Request) (any, error) {
	model, interm := r.PathValue("model"), r.PathValue("interm")
	db := s.sys.Metadata()
	if db.Model(model) == nil {
		return nil, notFound("unknown model %q", model)
	}
	it, ok := db.IntermSnapshot(model, interm)
	if !ok {
		return nil, notFound("unknown intermediate %s.%s", model, interm)
	}
	return intermInfo(&it), nil
}

func (s *Server) handleQuery(r *http.Request) (any, error) {
	var req client.QueryRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if req.Model == "" || req.Intermediate == "" {
		return nil, badRequest("query needs model and intermediate")
	}
	var res *mistique.Result
	var err error
	switch req.Strategy {
	case "":
		res, err = s.sys.GetIntermediateCtx(r.Context(), req.Model, req.Intermediate, req.Cols, req.NEx)
	case cost.Read.String():
		res, err = s.sys.FetchCtx(r.Context(), req.Model, req.Intermediate, req.Cols, req.NEx, cost.Read)
	case cost.Rerun.String():
		res, err = s.sys.FetchCtx(r.Context(), req.Model, req.Intermediate, req.Cols, req.NEx, cost.Rerun)
	default:
		return nil, badRequest("unknown strategy %q (want READ, RERUN or empty)", req.Strategy)
	}
	if err != nil {
		return nil, err
	}
	return client.QueryResponse{
		Model:           res.Model,
		Intermediate:    res.Intermediate,
		Cols:            res.Cols,
		Rows:            res.Data.Rows,
		Data:            matrixRows(res.Data),
		Strategy:        res.Strategy.String(),
		EstReadSecs:     res.EstReadSecs,
		EstRerunSecs:    res.EstRerunSecs,
		FetchSeconds:    res.FetchSeconds,
		Recovered:       res.Recovered,
		MaterializedNow: res.MaterializedNow,
	}, nil
}

func (s *Server) handleColumn(r *http.Request) (any, error) {
	model, interm, col := r.PathValue("model"), r.PathValue("interm"), r.PathValue("col")
	nEx, err := intParam(r, "n", 0)
	if err != nil {
		return nil, err
	}
	// Validate the column against the catalog up front: the engine's
	// read path would otherwise degrade an unknown column into a rerun
	// recovery attempt before failing.
	it, ok := s.sys.Metadata().IntermSnapshot(model, interm)
	if ok && !hasColumn(it.Columns, col) {
		return nil, notFound("intermediate %s.%s has no column %q", model, interm, col)
	}
	vals, err := s.sys.GetColumnCtx(r.Context(), model, interm, col, nEx)
	if err != nil {
		return nil, err
	}
	return client.ColumnResponse{Model: model, Intermediate: interm, Column: col, Values: wireRow(vals)}, nil
}

func hasColumn(cols []string, want string) bool {
	for _, c := range cols {
		if c == want {
			return true
		}
	}
	return false
}

func (s *Server) handleEstimate(r *http.Request) (any, error) {
	q := r.URL.Query()
	model, interm := q.Get("model"), q.Get("interm")
	if model == "" || interm == "" {
		return nil, badRequest("estimate needs model and interm query params")
	}
	nEx, err := intParam(r, "n", 0)
	if err != nil {
		return nil, err
	}
	readSecs, rerunSecs, err := s.sys.Estimate(model, interm, nEx)
	if err != nil {
		return nil, err
	}
	// Expose the engine's actual choice, tie-break included (the paper
	// reads when t_rerun >= t_read), gated on materialization exactly as
	// GetIntermediate gates it.
	chosen := cost.Rerun
	if it, ok := s.sys.Metadata().IntermSnapshot(model, interm); ok && it.Materialized && cost.Choose(rerunSecs, readSecs) == cost.Read {
		chosen = cost.Read
	}
	return client.EstimateResponse{
		Model:        model,
		Intermediate: interm,
		NEx:          nEx,
		EstReadSecs:  readSecs,
		EstRerunSecs: rerunSecs,
		Chosen:       chosen.String(),
	}, nil
}

func (s *Server) handleFilter(r *http.Request) (any, error) {
	var req client.FilterRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if req.Model == "" || req.Intermediate == "" || req.Column == "" {
		return nil, badRequest("filter needs model, intermediate and column")
	}
	op, err := parseOp(req.Op)
	if err != nil {
		return nil, err
	}
	if req.From < 0 || (req.To != 0 && req.To < req.From) {
		return nil, badRequest("bad row range [%d, %d)", req.From, req.To)
	}
	rows, err := s.sys.FilterRowsRangeCtx(r.Context(), req.Model, req.Intermediate, req.Column, op, float32(req.Bound), req.From, req.To)
	if err != nil {
		return nil, err
	}
	if rows == nil {
		rows = []int{}
	}
	return client.FilterResponse{Rows: rows, Count: len(rows)}, nil
}

func (s *Server) handleTopK(r *http.Request) (any, error) {
	var req client.TopKRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if req.Model == "" || req.Intermediate == "" || req.Column == "" {
		return nil, badRequest("topk needs model, intermediate and column")
	}
	if req.K < 0 {
		return nil, badRequest("topk needs k >= 0, got %d", req.K)
	}
	if req.From < 0 || (req.To != 0 && req.To < req.From) {
		return nil, badRequest("bad row range [%d, %d)", req.From, req.To)
	}
	entries, err := s.sys.TopKRangeCtx(r.Context(), req.Model, req.Intermediate, req.Column, req.K, req.From, req.To)
	if err != nil {
		return nil, err
	}
	out := make([]client.TopKEntry, len(entries))
	for i, e := range entries {
		out[i] = client.TopKEntry{Row: e.Row, Value: client.F32(e.Value)}
	}
	return client.TopKResponse{
		Model:        req.Model,
		Intermediate: req.Intermediate,
		Column:       req.Column,
		Entries:      out,
	}, nil
}

func parseOp(op string) (colstore.Op, error) {
	switch op {
	case "gt":
		return colstore.Gt, nil
	case "ge":
		return colstore.Ge, nil
	case "lt":
		return colstore.Lt, nil
	case "le":
		return colstore.Le, nil
	}
	return 0, badRequest("unknown op %q (want gt, ge, lt or le)", op)
}

func (s *Server) handleRows(r *http.Request) (any, error) {
	var req client.RowsRequest
	if err := decodeBody(r, &req); err != nil {
		return nil, err
	}
	if req.Model == "" || req.Intermediate == "" {
		return nil, badRequest("rows needs model and intermediate")
	}
	if req.From < 0 || req.From > req.To {
		return nil, badRequest("bad row range [%d, %d)", req.From, req.To)
	}
	m, err := s.sys.GetRowsCtx(r.Context(), req.Model, req.Intermediate, req.Cols, req.From, req.To)
	if err != nil {
		return nil, err
	}
	cols := req.Cols
	if len(cols) == 0 {
		if it, ok := s.sys.Metadata().IntermSnapshot(req.Model, req.Intermediate); ok {
			cols = it.Columns
		}
	}
	return client.RowsResponse{
		Model:        req.Model,
		Intermediate: req.Intermediate,
		Cols:         cols,
		From:         req.From,
		To:           req.From + m.Rows,
		Data:         matrixRows(m),
	}, nil
}

func (s *Server) handleStats(r *http.Request) (any, error) {
	snap := s.sys.Metrics()
	if disk, err := s.sys.DiskBytes(); err == nil {
		snap.Gauges["mistique_disk_bytes"] = disk
		snap.Help["mistique_disk_bytes"] = "on-disk footprint of stored intermediates"
	}
	return snap, nil
}

// handleMetrics is the one non-JSON endpoint: Prometheus text exposition
// of the same snapshot /statsz serves.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	defer s.recoverPanic(w)
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "%s needs GET, got %s", r.URL.Path, r.Method)
		return
	}
	snap := s.sys.Metrics()
	if disk, err := s.sys.DiskBytes(); err == nil {
		snap.Gauges["mistique_disk_bytes"] = disk
		snap.Help["mistique_disk_bytes"] = "on-disk footprint of stored intermediates"
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	snap.WritePrometheus(w)
}

func (s *Server) handleHealth(r *http.Request) (any, error) {
	return client.HealthResponse{Status: "ok", Models: len(s.sys.Metadata().Models())}, nil
}

// readiness assembles the /readyz body: degraded when the last recovery
// sweep quarantined data or the admission semaphore is saturated.
func (s *Server) readiness() client.ReadyResponse {
	resp := client.ReadyResponse{
		Status:      "ok",
		Shard:       s.cfg.ShardName,
		Models:      len(s.sys.Metadata().Models()),
		InFlight:    len(s.sem),
		MaxInFlight: s.cfg.MaxInFlight,
	}
	var reasons []string
	if rep := s.sys.RecoveryReport(); rep != nil {
		resp.QuarantinedPartitions = len(rep.ExtraFilesQuarantined) + len(rep.CorruptPartitions)
		resp.ManifestQuarantined = rep.ManifestQuarantined
		if rep.ManifestQuarantined {
			reasons = append(reasons, "manifest quarantined on last open (store restarted empty)")
		}
		if resp.QuarantinedPartitions > 0 {
			reasons = append(reasons, fmt.Sprintf("%d partition(s) quarantined by recovery", resp.QuarantinedPartitions))
		}
		if n := len(rep.LostChunks); n > 0 {
			reasons = append(reasons, fmt.Sprintf("%d chunk(s) lost, serving via rerun recovery", n))
		}
	}
	if resp.InFlight >= resp.MaxInFlight {
		resp.Saturated = true
		reasons = append(reasons, "admission semaphore saturated, shedding queries")
	}
	if len(reasons) > 0 {
		resp.Status = "degraded"
		resp.Reasons = reasons
	}
	return resp
}

// handleReady is raw (not wrapped in plain) because a degraded node must
// answer 503 with the ReadyResponse body, not the error envelope: the
// body is the answer, the status code is for load balancers.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	defer s.recoverPanic(w)
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "%s needs GET, got %s", r.URL.Path, r.Method)
		return
	}
	resp := s.readiness()
	body, err := json.Marshal(resp)
	if err != nil {
		s.errors5x.Inc()
		writeError(w, http.StatusInternalServerError, "encode response: %v", err)
		return
	}
	status := http.StatusOK
	if resp.Status != "ok" {
		status = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	w.Write([]byte("\n"))
}

func (s *Server) handleCompact(r *http.Request) (any, error) {
	reclaimed, err := s.sys.CompactStore()
	if err != nil {
		return nil, err
	}
	return client.CompactResponse{ReclaimedBytes: reclaimed}, nil
}

// intParam parses an optional integer query parameter.
func intParam(r *http.Request, name string, def int) (int, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return def, nil
	}
	v, err := strconv.Atoi(raw)
	if err != nil {
		return 0, badRequest("bad %s=%q: want an integer", name, raw)
	}
	return v, nil
}
