package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"

	"m3/internal/core"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/modelio"
	"m3/internal/obs"
)

// WorkerConfig parameterizes a worker node.
type WorkerConfig struct {
	// Mode selects the storage backend for the shard (Auto maps when
	// the whole file outgrows the budget — exactly like a local fit).
	Mode core.Mode
	// MemoryBudget is the Auto-mode heap budget (0: engine default).
	MemoryBudget int64
	// Workers sizes the shard scans' worker pool (<= 0: NumCPU).
	// Results are bit-identical for every value.
	Workers int
}

// Worker serves shard scans for one or more coordinators. Each
// accepted connection gets its own engine and shard state, torn down
// when the connection closes, so a dropped coordinator never leaks
// mappings or scratch.
type Worker struct {
	cfg WorkerConfig

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]struct{}
	draining bool
	wg       sync.WaitGroup
}

// NewWorker returns a worker with the given storage configuration.
func NewWorker(cfg WorkerConfig) *Worker {
	return &Worker{cfg: cfg, conns: make(map[net.Conn]struct{})}
}

// Serve accepts coordinator connections on ln until Shutdown (or a
// listener error). It blocks; run it in a goroutine when embedding.
func (w *Worker) Serve(ln net.Listener) error {
	w.mu.Lock()
	if w.draining {
		w.mu.Unlock()
		return errors.New("dist: worker is shut down")
	}
	w.ln = ln
	w.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			w.mu.Lock()
			draining := w.draining
			w.mu.Unlock()
			if draining {
				return nil
			}
			return err
		}
		w.mu.Lock()
		if w.draining {
			w.mu.Unlock()
			conn.Close()
			continue
		}
		w.conns[conn] = struct{}{}
		w.wg.Add(1)
		w.mu.Unlock()
		go func() {
			defer w.wg.Done()
			w.handleConn(conn)
			w.mu.Lock()
			delete(w.conns, conn)
			w.mu.Unlock()
		}()
	}
}

// Shutdown stops accepting, waits for in-flight requests to drain
// (bounded by ctx), then closes remaining connections. SIGTERM
// handlers call this for a clean drain.
func (w *Worker) Shutdown(ctx context.Context) error {
	w.mu.Lock()
	w.draining = true
	ln := w.ln
	w.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	done := make(chan struct{})
	go func() {
		w.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		w.mu.Lock()
		//m3vet:allow maporder -- shutdown sweep; close order is irrelevant
		for c := range w.conns {
			c.Close()
		}
		w.mu.Unlock()
		<-done
		return ctx.Err()
	}
}

// handleConn serves one coordinator connection: strictly serial
// request/response, with a per-connection session torn down on exit.
func (w *Worker) handleConn(conn net.Conn) {
	defer conn.Close()
	s := &session{cfg: w.cfg}
	defer s.close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// Every response header of this connection is assembled in frame,
	// and every request body read into body.
	var frame, body bytes.Buffer
	for {
		var req request
		if _, err := readFrame(conn, &req, &body); err != nil {
			return // EOF or dropped coordinator: tear down the session
		}
		req.body = body.Bytes()
		workerOpsTotal.With(req.label()).Inc()
		reply, err := func() (b []byte, err error) {
			sp := obs.StartSpan("dist", "worker "+req.label())
			defer sp.End()
			defer func() {
				if r := recover(); r != nil {
					err = fmt.Errorf("dist: worker panic in %s: %v", req.label(), r)
				}
			}()
			return s.handle(ctx, &req)
		}()
		resp := response{Seq: req.Seq}
		if err != nil {
			resp.Err, reply = err.Error(), nil
		}
		if _, err := writeFrame(conn, &frame, &resp, reply); err != nil {
			return
		}
	}
}

// session is the per-connection shard state.
type session struct {
	cfg WorkerConfig

	eng    *core.Engine
	lo, hi int
	// groupRows is the coordinator's merge-group height, which every
	// scan here must reuse.
	groupRows int

	// base is the raw shard window; view is base with the fused
	// transform chain applied (== base when the chain is empty) or
	// the materialized cache.
	base   *mat.Dense
	view   *mat.Dense
	labels []float64
	cache  *core.Dataset

	// shard is what the passes of the current fit build against: the
	// view's width, the label views and the fit's row-indexed scratch.
	// reset replaces it.
	shard *fit.Shard

	// reply holds the encoded group states of the reduce being
	// answered; its bytes are the response body until the next request.
	reply []byte
}

// close releases everything the session holds.
func (s *session) close() {
	if s.eng != nil {
		s.eng.Close()
		s.eng = nil
	}
	s.base, s.view, s.cache, s.labels, s.shard = nil, nil, nil, nil, nil
}

// reset drops the fused chain, any materialized cache and all per-fit
// state (label views, scratch), returning the view to the raw shard
// window.
func (s *session) reset() {
	if s.cache != nil {
		s.cache.Release()
		s.cache = nil
	}
	s.view = s.base
	s.shard = &fit.Shard{Rows: s.hi - s.lo, Cols: s.view.Cols(), Labels: s.labels}
}

// fusable is a fitted transformer stage that can extend a fused view:
// what *preprocess.StandardScaler, *preprocess.MinMaxScaler and
// *pca.Result — the stages a pipeline Spec can name — all provide.
type fusable interface {
	InCols() int
	OutCols() int
	BlockKernel() exec.RowKernel
}

// handle dispatches one op.
func (s *session) handle(ctx context.Context, req *request) ([]byte, error) {
	switch req.Op {
	case "stat":
		var r statReq
		if err := decodeBody(req.body, &r); err != nil {
			return nil, err
		}
		return s.stat(r)
	case "open":
		var r openReq
		if err := decodeBody(req.body, &r); err != nil {
			return nil, err
		}
		return s.open(r)
	}
	if s.view == nil {
		return nil, fmt.Errorf("dist: %s before open", req.Op)
	}
	switch req.Op {
	case "reset":
		s.reset()
		return nil, nil
	case "stage":
		var r stageReq
		if err := decodeBody(req.body, &r); err != nil {
			return nil, err
		}
		return s.pushStage(r)
	case "materialize":
		return s.materialize(ctx)
	case "reduce":
		scan := s.view.ScanCtx(ctx, s.cfg.Workers)
		scan.GroupRows = s.groupRows
		var err error
		if s.reply, err = fit.Serve(req.Pass, s.shard, scan, req.body, s.reply[:0]); err != nil {
			return nil, fmt.Errorf("shard [%d, %d): %w", s.lo, s.hi, err)
		}
		return s.reply, nil
	case "kmeans/sample":
		var r sampleReq
		if err := decodeBody(req.body, &r); err != nil {
			return nil, err
		}
		sc, ok := s.shard.Scratch.(*kmeans.Scratch)
		if !ok || sc.Dist == nil {
			return nil, errors.New("dist: kmeans/sample before a kmeans/seed pass")
		}
		idx, acc, found := kmeans.SamplePrefix(sc.Dist, r.Acc, r.Target)
		return encodeBody(&sampleResp{Found: found, Idx: idx, Acc: acc})
	case "kmeans/gather":
		sc, ok := s.shard.Scratch.(*kmeans.Scratch)
		if !ok {
			return nil, errors.New("dist: kmeans/gather before a kmeans/assign pass")
		}
		return encodeBody(&gatherResp{Assignments: sc.Assignments})
	case "row":
		var r rowReq
		if err := decodeBody(req.body, &r); err != nil {
			return nil, err
		}
		if r.I < 0 || r.I >= s.view.Rows() {
			return nil, fmt.Errorf("dist: row %d out of shard [0, %d)", r.I, s.view.Rows())
		}
		row, stall := s.view.Row(r.I)
		return encodeBody(&rowResp{Row: append([]float64(nil), row...), Stall: stall})
	}
	return nil, fmt.Errorf("dist: unknown op %q", req.Op)
}

// stat opens path just long enough to report its shape.
func (s *session) stat(req statReq) ([]byte, error) {
	eng := core.New(core.Config{Mode: core.MemoryMapped, Workers: 1})
	defer eng.Close()
	t, err := eng.Open(req.Path)
	if err != nil {
		return nil, err
	}
	rows, cols := t.X.Dims()
	return encodeBody(&statResp{Rows: rows, Cols: cols, HasLabels: t.Labels != nil})
}

// open claims the shard: the engine opens the whole file (mapped
// files share pages between shards on one host; heap mode loads once
// per worker) and the session scans only its row window.
func (s *session) open(req openReq) ([]byte, error) {
	if req.Lo < 0 || req.Hi <= req.Lo {
		return nil, fmt.Errorf("dist: bad shard [%d, %d)", req.Lo, req.Hi)
	}
	if req.GroupRows < 1 {
		return nil, fmt.Errorf("dist: bad group height %d", req.GroupRows)
	}
	if req.Lo%req.GroupRows != 0 {
		return nil, fmt.Errorf("dist: shard start %d is not a multiple of the group height %d", req.Lo, req.GroupRows)
	}
	s.close() // tear down any previous shard first
	s.eng = core.New(core.Config{Mode: s.cfg.Mode, MemoryBudget: s.cfg.MemoryBudget, Workers: s.cfg.Workers})
	t, err := s.eng.Open(req.Path)
	if err != nil {
		return nil, err
	}
	rows, cols := t.X.Dims()
	if req.Hi > rows {
		return nil, fmt.Errorf("dist: shard [%d, %d) exceeds %d rows", req.Lo, req.Hi, rows)
	}
	s.lo, s.hi = req.Lo, req.Hi
	s.groupRows = req.GroupRows
	s.base = t.X.RowWindow(req.Lo, req.Hi)
	if t.Labels != nil {
		s.labels = t.Labels[req.Lo:req.Hi]
	}
	s.reset()
	return encodeBody(&openResp{Rows: s.hi - s.lo, Cols: cols, HasLabels: s.labels != nil})
}

// pushStage decodes one fitted transformer from its modelio envelope
// and fuses its kernel onto the view — the same per-row kernel, and
// the same chain composition (mat.NewFused over a fused view), the
// local pipeline builds, so the transformed rows are bit-identical.
func (s *session) pushStage(req stageReq) ([]byte, error) {
	if s.cache != nil {
		return nil, errors.New("dist: stage after materialize")
	}
	model, kind, err := modelio.Load(bytes.NewReader(req.Model))
	if err != nil {
		return nil, err
	}
	st, ok := model.(fusable)
	if !ok {
		return nil, fmt.Errorf("dist: a %s model is not a fusable stage", kind)
	}
	if got, want := st.InCols(), s.view.Cols(); got != want {
		return nil, fmt.Errorf("dist: stage expects %d columns, view has %d", got, want)
	}
	s.view = mat.NewFused(s.view, st.OutCols(), st.BlockKernel)
	s.shard.Cols = s.view.Cols()
	return encodeBody(&stageResp{OutCols: s.view.Cols()})
}

// materialize streams the fused view once into engine scratch and
// re-points the view at the cache — the worker half of the pipeline's
// single materialization before a multi-epoch final fit.
func (s *session) materialize(ctx context.Context) ([]byte, error) {
	if !s.view.IsFused() {
		return nil, nil
	}
	ds := &core.Dataset{X: s.view, Workers: s.cfg.Workers, Engine: s.eng}
	cache, err := core.Materialize(ctx, ds, s.cfg.Workers)
	if err != nil {
		return nil, err
	}
	s.cache = cache
	s.view = cache.X
	return nil, nil
}
