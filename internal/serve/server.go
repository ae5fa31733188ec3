// Package serve is the model-serving subsystem behind cmd/m3serve:
// an HTTP/JSON prediction server over m3.Load-ed models of any saved
// kind, including whole pipelines (which predict through their fused
// per-worker kernel views — no per-request stage materialization).
//
// The moving parts:
//
//   - Registry: named models behind atomic snapshot pointers, so a
//     hot-swap (POST /models/{name}/swap, or SIGHUP) is one pointer
//     flip — zero dropped requests, old resources (e.g. the engine
//     mmap backing a k-NN table) closed only after the last in-flight
//     batch releases them.
//   - Batcher: accumulates requests and flushes them as single
//     PredictMatrix calls (micro-batching), one queue per model: an
//     idle model's request goes out at once, and requests coalesce
//     only behind a model's in-flight batch.
//   - Metrics: per-model request/error counts, batch-size histogram
//     and p50/p90/p99 latency at GET /metrics — Prometheus text by
//     default (through a per-server obs.Registry that also folds in
//     the process-wide obs counters), the legacy JSON document with
//     ?format=json or Accept: application/json.
//
// Routes:
//
//	POST /models/{name}/predict  {"rows": [[...], ...]} → {"model", "predictions"}
//	POST /models/{name}/swap     {"path": "..."}        → load + atomic flip
//	GET  /models                 registered models and their metadata
//	GET  /models/{name}          one model's metadata + metrics
//	GET  /metrics                Prometheus text (JSON via ?format=json)
//	GET  /healthz                200 while serving, 503 once draining
//	GET  /debug/pprof/...        net/http/pprof profiling endpoints
//
// The predict body is parsed in one pass straight into the batch's
// row-major matrix (decode.go), not through encoding/json's
// reflection. It must be one JSON object (RFC 8259; whitespace around
// it is allowed). Its "rows" member is matched as encoding/json
// matches a struct field: the key is unescaped, then compared exactly
// or by Unicode case folding ("Rows", "ROWS"), and a repeated member
// replaces the earlier one. "rows" is an array of arrays of JSON
// numbers; row 0 fixes the width and must not be empty, and every
// other row must match it. Each number is converted with
// strconv.ParseFloat, the call encoding/json makes, so the values are
// bit-identical to its decode; one outside float64's range is refused.
// Every other member is skipped after its syntax is checked, nested up
// to encoding/json's 10 000 levels. Anything else is a 400, including
// three bodies encoding/json would have taken: bytes after the object
// (json.Decoder never reads them), null as a row or a value (it
// decodes them as an empty row and as 0), and an empty row 0 (a
// matrix of zero columns).
//
// When a process tracer is installed (obs.StartTrace, m3serve
// -trace), every prediction request and every flushed batch become
// linked async spans in the Chrome trace-event export.
package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	nhpprof "net/http/pprof"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"m3"
	"m3/internal/obs"
)

// maxBodyBytes bounds a predict/swap request body (64 MiB — a
// 4096-row batch of 784 float64 features is ~26 MiB of JSON).
const maxBodyBytes = 64 << 20

// Config tunes the server's micro-batcher.
type Config struct {
	// BatchSize caps the rows of one flush, and flushes a busy
	// model's queue once this many rows are pending (minimum 1).
	BatchSize int
	// BatchDelay is the longest a request waits for company behind a
	// busy model; an idle model never waits. 0 flushes as soon as the
	// model's dispatcher is free (one batch per model in flight).
	BatchDelay time.Duration
	// QueueRows caps the rows waiting in the batcher queue; a request
	// that would exceed it is refused with HTTP 429 instead of queued
	// (admission control). 0 leaves the queue unbounded.
	QueueRows int
}

// Server ties the registry, batcher and metrics to HTTP routes.
type Server struct {
	reg      *Registry
	batcher  *Batcher
	mux      *http.ServeMux
	start    time.Time
	draining atomic.Bool
	obsReg   *obs.Registry
}

// NewServer builds a server over reg. The caller owns reg's lifetime;
// Drain stops the batcher but leaves the registry open so in-flight
// snapshots release normally.
func NewServer(reg *Registry, cfg Config) *Server {
	s := &Server{
		reg:     reg,
		batcher: NewBatcher(cfg.BatchSize, cfg.BatchDelay, cfg.QueueRows),
		start:   time.Now(),
	}
	// The server owns its own obs registry (per-model counters, store
	// stats, uptime) and folds in the process-wide Default registry
	// (fit progress, /proc counters) at gather time — so two servers
	// in one process never double-register collectors.
	s.obsReg = obs.NewRegistry()
	s.obsReg.Register(s.collectObs)
	s.obsReg.Include(obs.Default())
	mux := http.NewServeMux()
	mux.HandleFunc("POST /models/{name}/predict", s.handlePredict)
	mux.HandleFunc("POST /models/{name}/swap", s.handleSwap)
	mux.HandleFunc("GET /models", s.handleModels)
	mux.HandleFunc("GET /models/{name}", s.handleModel)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /debug/pprof/", nhpprof.Index)
	mux.HandleFunc("GET /debug/pprof/cmdline", nhpprof.Cmdline)
	mux.HandleFunc("GET /debug/pprof/profile", nhpprof.Profile)
	mux.HandleFunc("GET /debug/pprof/symbol", nhpprof.Symbol)
	mux.HandleFunc("GET /debug/pprof/trace", nhpprof.Trace)
	s.mux = mux
	return s
}

// Handler returns the route multiplexer.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain begins graceful shutdown: health flips to 503 (so load
// balancers stop routing here), new predictions are refused, and the
// call blocks until every in-flight batch has been answered.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.batcher.Drain()
}

type httpError struct {
	status int
	msg    string
}

func (e *httpError) Error() string { return e.msg }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeErr(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// predictResponse carries one value per request row.
type predictResponse struct {
	Model       string    `json:"model"`
	Predictions []float64 `json:"predictions"`
}

// parsePredict decodes the request body straight into a batch
// request's row-major matrix and validates it against the entry's
// current metadata.
func parsePredict(r *http.Request, w http.ResponseWriter, e *Entry) (*batchRequest, *httpError) {
	raw, err := readBody(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, "reading body: " + err.Error()}
	}
	body, err := parseRows(raw)
	if err != nil {
		return nil, &httpError{http.StatusBadRequest, "decoding body: " + err.Error()}
	}
	if body.n == 0 {
		return nil, &httpError{http.StatusBadRequest, "empty rows"}
	}
	info, err := e.Info()
	if err != nil {
		return nil, &httpError{http.StatusServiceUnavailable, err.Error()}
	}
	if info.InputCols > 0 && body.cols != info.InputCols {
		return nil, &httpError{http.StatusBadRequest,
			"model " + e.Name() + " expects " + strconv.Itoa(info.InputCols) + " columns, request has " + strconv.Itoa(body.cols)}
	}
	if body.ragged >= 0 {
		return nil, &httpError{http.StatusBadRequest,
			"ragged rows: row " + strconv.Itoa(body.ragged) + " has " + strconv.Itoa(body.raggedW) + " values, row 0 has " + strconv.Itoa(body.cols)}
	}
	return &batchRequest{
		entry: e,
		rows:  body.vals,
		n:     body.n,
		cols:  body.cols,
		out:   make(chan result, 1),
	}, nil
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	start := time.Now() // served latency includes reading and decoding the body
	name := r.PathValue("name")
	entry, ok := s.reg.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown model "+name))
		return
	}
	req, herr := parsePredict(r, w, entry)
	if herr != nil {
		entry.metrics.requestErrors(1)
		writeErr(w, herr.status, herr)
		return
	}
	if tr := obs.Current(); tr != nil {
		req.obsID = tr.NextID()
		tr.AsyncBegin("serve", "request "+name, req.obsID, map[string]any{"rows": req.n})
		defer tr.AsyncEnd("serve", "request "+name, req.obsID, nil)
	}
	entry.metrics.request(req.n)
	if err := s.batcher.Submit(req); err != nil {
		entry.metrics.requestErrors(1)
		status := http.StatusServiceUnavailable
		if errors.Is(err, ErrQueueFull) {
			// Shed load, don't signal outage: 429 tells clients to back
			// off and retry, while draining stays a 503.
			status = http.StatusTooManyRequests
		}
		writeErr(w, status, err)
		return
	}
	res := <-req.out
	entry.metrics.observeLatency(time.Since(start))
	if res.err != nil {
		status := http.StatusInternalServerError
		if errors.Is(res.err, ErrModelClosed) || errors.Is(res.err, ErrDraining) {
			status = http.StatusServiceUnavailable
		}
		writeErr(w, status, res.err)
		return
	}
	writeJSON(w, http.StatusOK, predictResponse{Model: name, Predictions: res.preds})
}

// swapRequest points a model name at a newly saved file.
type swapRequest struct {
	Path string `json:"path"`
}

func (s *Server) handleSwap(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	var body swapRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&body); err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	if body.Path == "" {
		writeErr(w, http.StatusBadRequest, errors.New("missing path"))
		return
	}
	entry, err := s.reg.LoadFile(name, body.Path)
	if err != nil {
		writeErr(w, http.StatusBadRequest, err)
		return
	}
	info, _ := entry.Info()
	writeJSON(w, http.StatusOK, modelSummary(entry, info))
}

// modelInfo is the wire form of a registered model.
type modelInfoJSON struct {
	Name      string         `json:"name"`
	Kind      string         `json:"kind"`
	InputCols int            `json:"input_cols"`
	Classes   int            `json:"classes,omitempty"`
	Stages    []m3.ModelKind `json:"stages,omitempty"`
	Path      string         `json:"path,omitempty"`
	Swaps     int64          `json:"swaps"`
}

func modelSummary(e *Entry, info m3.ModelInfo) modelInfoJSON {
	return modelInfoJSON{
		Name:      e.Name(),
		Kind:      string(info.Kind),
		InputCols: info.InputCols,
		Classes:   info.Classes,
		Stages:    info.Stages,
		Path:      e.Path(),
		Swaps:     e.Metrics().Snapshot().Swaps,
	}
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	entries := s.reg.Entries()
	out := make([]modelInfoJSON, 0, len(entries))
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, modelSummary(e, info))
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": out})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	entry, ok := s.reg.Get(name)
	if !ok {
		writeErr(w, http.StatusNotFound, errors.New("unknown model "+name))
		return
	}
	info, err := entry.Info()
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"model":   modelSummary(entry, info),
		"metrics": entry.Metrics().Snapshot(),
	})
}

// modelMetrics is one model's /metrics block.
type modelMetrics struct {
	MetricsSnapshot
	Store map[string]int64 `json:"store,omitempty"`
}

// collectObs emits the server-level gauges plus every model's
// counters and store stats into the server's obs registry.
func (s *Server) collectObs(emit func(obs.Metric)) {
	emit(obs.Metric{Name: "m3_serve_uptime_seconds",
		Help: "Seconds since the server started.", Type: obs.TypeGauge,
		Value: time.Since(s.start).Seconds()})
	drain := 0.0
	if s.draining.Load() {
		drain = 1
	}
	emit(obs.Metric{Name: "m3_serve_draining",
		Help: "1 while the server is draining, 0 otherwise.", Type: obs.TypeGauge,
		Value: drain})
	emit(obs.Metric{Name: "m3_serve_queue_rows",
		Help: "Rows currently waiting in the batcher queue.", Type: obs.TypeGauge,
		Value: float64(s.batcher.QueueRows())})
	for _, e := range s.reg.Entries() {
		e.Metrics().Collect(e.Name(), emit)
		stats := e.stats()
		keys := make([]string, 0, len(stats))
		for k := range stats {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			emit(obs.Metric{Name: "m3_store_" + k,
				Help: "Model store counter " + k + ".", Type: obs.TypeGauge,
				Labels: [][2]string{{"model", e.Name()}}, Value: float64(stats[k])})
		}
	}
}

// handleMetrics serves Prometheus text exposition by default; the
// original JSON document remains available with ?format=json or
// Accept: application/json for existing scrapers.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	wantJSON := r.URL.Query().Get("format") == "json" ||
		strings.Contains(r.Header.Get("Accept"), "application/json")
	if wantJSON {
		models := map[string]modelMetrics{}
		for _, e := range s.reg.Entries() {
			models[e.Name()] = modelMetrics{
				MetricsSnapshot: e.Metrics().Snapshot(),
				Store:           e.stats(),
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"uptime_seconds": time.Since(s.start).Seconds(),
			"draining":       s.draining.Load(),
			"models":         models,
		})
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.obsReg.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"models": len(s.reg.Entries()),
	})
}
