package dist

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/bayes"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/linreg"
	"m3/internal/ml/logreg"
	"m3/internal/ml/modelio"
	"m3/internal/ml/pca"
	"m3/internal/ml/preprocess"
	"m3/internal/obs"
)

// Options parameterizes a Coordinator.
type Options struct {
	// DialTimeout bounds each dial attempt (default 5s).
	DialTimeout time.Duration
	// DialRetries is how many times a transient dial failure (worker
	// still binding) is retried with exponential backoff (default 5).
	DialRetries int
	// CallTimeout bounds each RPC round trip (default 2m — a round
	// includes a full shard scan).
	CallTimeout time.Duration
}

func (o Options) withDefaults() Options {
	if o.DialTimeout <= 0 {
		o.DialTimeout = 5 * time.Second
	}
	if o.DialRetries <= 0 {
		o.DialRetries = 5
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = 2 * time.Minute
	}
	return o
}

// Stats summarizes a coordinator's wire activity (monotonic since
// Dial; snapshot before and after a fit to cost it).
type Stats struct {
	// Rounds counts broadcast rounds (one parallel op across all
	// active shards).
	Rounds int64
	// BytesSent / BytesReceived are wire totals from the
	// coordinator's side.
	BytesSent, BytesReceived int64
	// StragglerWait accumulates per-round max-minus-min worker
	// latency.
	StragglerWait time.Duration
}

// Sub returns s - earlier, for per-fit deltas.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Rounds:        s.Rounds - earlier.Rounds,
		BytesSent:     s.BytesSent - earlier.BytesSent,
		BytesReceived: s.BytesReceived - earlier.BytesReceived,
		StragglerWait: s.StragglerWait - earlier.StragglerWait,
	}
}

// workerConn is one dialed worker.
type workerConn struct {
	addr   string
	conn   net.Conn
	seq    uint64
	lo, hi int
	// mu serializes calls on the connection (the protocol is strictly
	// request/response) and guards frame, which every request header is
	// assembled in, and body, which every reply body is read into.
	mu          sync.Mutex
	frame, body bytes.Buffer
}

// Coordinator drives distributed fits over a set of dialed workers.
// It is not safe for concurrent Fit calls.
type Coordinator struct {
	opts    Options
	workers []*workerConn
	// active are the workers holding shards of the open dataset, in
	// ascending shard order — the merge order.
	active []*workerConn

	path       string
	rows, cols int
	hasLabels  bool
	groupRows  int
	// curCols tracks the view width through pipeline stages.
	curCols int

	rounds, bytesSent, bytesRecv atomic.Int64
	stragglerNanos               atomic.Int64
}

// DialWorkers connects to every addr (retrying transient failures)
// and returns a coordinator over them.
func DialWorkers(ctx context.Context, addrs []string, opts Options) (*Coordinator, error) {
	if len(addrs) == 0 {
		return nil, errors.New("dist: no worker addresses")
	}
	o := opts.withDefaults()
	c := &Coordinator{opts: o}
	for _, addr := range addrs {
		conn, err := dialRetry(ctx, addr, o.DialTimeout, o.DialRetries)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.workers = append(c.workers, &workerConn{addr: addr, conn: conn})
	}
	return c, nil
}

// Close drops every worker connection. Workers tear down their shard
// state when the connection closes.
func (c *Coordinator) Close() error {
	var errs []error
	for _, w := range c.workers {
		if w.conn != nil {
			errs = append(errs, w.conn.Close())
			w.conn = nil
		}
	}
	c.workers, c.active = nil, nil
	return errors.Join(errs...)
}

// Workers returns the dialed worker count.
func (c *Coordinator) Workers() int { return len(c.workers) }

// Shards returns the active shard count of the open dataset.
func (c *Coordinator) Shards() int { return len(c.active) }

// Stats returns cumulative wire statistics.
func (c *Coordinator) Stats() Stats {
	return Stats{
		Rounds:        c.rounds.Load(),
		BytesSent:     c.bytesSent.Load(),
		BytesReceived: c.bytesRecv.Load(),
		StragglerWait: time.Duration(c.stragglerNanos.Load()),
	}
}

// call performs one serialized RPC on w and returns the reply body,
// which is w's buffer: it is valid until the next call on w, so a
// caller decodes or absorbs it before it calls w again. ctx
// cancellation pokes the connection deadline so a mid-round cancel
// unblocks promptly.
func (c *Coordinator) call(ctx context.Context, w *workerConn, req request) ([]byte, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	op := req.label()
	if w.conn == nil {
		return nil, fmt.Errorf("dist: worker %s: connection closed", w.addr)
	}
	w.seq++
	req.Seq = w.seq
	// The hook runs on its own goroutine and may outlive stop(), so it
	// holds the connection itself — Close clears w.conn — and call does
	// not return while it runs: the next call's deadline is then set
	// after this one's was poked, never before.
	conn := w.conn
	conn.SetDeadline(time.Now().Add(c.opts.CallTimeout))
	poked := make(chan struct{})
	stop := context.AfterFunc(ctx, func() {
		defer close(poked)
		conn.SetDeadline(time.Unix(1, 0))
	})
	defer func() {
		if !stop() {
			<-poked
		}
	}()
	sent, err := writeFrame(conn, &w.frame, &req, req.body)
	c.bytesSent.Add(int64(sent))
	bytesSentTotal.With(op).Add(float64(sent))
	if err != nil {
		return nil, c.rpcErr(ctx, w, op, err)
	}
	var envelope response
	recvd, err := readFrame(conn, &envelope, &w.body)
	c.bytesRecv.Add(int64(recvd))
	bytesRecvTotal.With(op).Add(float64(recvd))
	if err != nil {
		return nil, c.rpcErr(ctx, w, op, err)
	}
	if envelope.Seq != req.Seq {
		return nil, fmt.Errorf("dist: worker %s: %s: reply %d for request %d", w.addr, op, envelope.Seq, req.Seq)
	}
	if envelope.Err != "" {
		return nil, fmt.Errorf("dist: worker %s: %s", w.addr, envelope.Err)
	}
	return w.body.Bytes(), nil
}

// rpcErr attributes a transport failure: a canceled context wins over
// the I/O error it induced.
func (c *Coordinator) rpcErr(ctx context.Context, w *workerConn, op string, err error) error {
	if ctx.Err() != nil {
		return ctx.Err()
	}
	return fmt.Errorf("dist: worker %s: %s: %w", w.addr, op, err)
}

// broadcast sends the same request to every active worker in parallel
// and returns the reply bodies in shard order — one bulk-synchronous
// round, with its straggler wait accounted. Each body is valid until
// the next call on its worker (see call).
func (c *Coordinator) broadcast(ctx context.Context, req request) ([][]byte, error) {
	op := req.label()
	sp := obs.StartSpan("dist", "round "+op)
	defer sp.End()
	n := len(c.active)
	out := make([][]byte, n)
	errs := make([]error, n)
	durs := make([]time.Duration, n)
	var wg sync.WaitGroup
	for i, w := range c.active {
		wg.Add(1)
		go func(i int, w *workerConn) {
			defer wg.Done()
			start := time.Now()
			out[i], errs[i] = c.call(ctx, w, req)
			durs[i] = time.Since(start)
		}(i, w)
	}
	wg.Wait()
	c.rounds.Add(1)
	roundsTotal.With(op).Inc()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	minD, maxD := durs[0], durs[0]
	for _, d := range durs[1:] {
		if d < minD {
			minD = d
		}
		if d > maxD {
			maxD = d
		}
	}
	wait := maxD - minD
	c.stragglerNanos.Add(int64(wait))
	stragglerWaitSeconds.With(op).Add(wait.Seconds())
	sp.SetArg("workers", n).SetArg("straggler_wait", wait.String())
	return out, nil
}

// source is the open, sharded dataset as the trainers' drivers see it:
// a fit.Source whose every pass is one broadcast "reduce" round. It is
// the only place this package meets a data pass, and it meets it as
// bytes: the argument goes out encoded, and each shard's reply goes —
// in shard order, which is global row order — to the round's Absorb,
// which merges that shard's group states in row order before the next
// round reuses the reply buffers.
type source struct{ c *Coordinator }

// Dims implements fit.Source with the global shape (the view's width
// once pipeline stages are pushed).
func (s source) Dims() (int, int) { return s.c.rows, s.c.curCols }

// Shard implements fit.Source: the coordinator holds no rows, so
// passes build against an empty shard of the dataset's width and
// labelledness — enough to allocate and merge states.
func (s source) Shard() *fit.Shard {
	sh := &fit.Shard{Cols: s.c.curCols}
	if s.c.hasLabels {
		sh.Labels = []float64{}
	}
	return sh
}

// Run implements fit.Source.
func (s source) Run(ctx context.Context, r fit.Round) (float64, error) {
	arg, err := encodeBody(r.Arg)
	if err != nil {
		return 0, err
	}
	replies, err := s.c.broadcast(ctx, request{Op: "reduce", Pass: r.Pass, body: arg})
	if err != nil {
		return 0, err
	}
	var stall float64
	for _, reply := range replies {
		st, err := r.Absorb(reply)
		if err != nil {
			return 0, err
		}
		stall += st
	}
	return stall, nil
}

// Open shards path across the dialed workers: it probes the file's
// shape, plans merge-group-aligned contiguous shards, and has each
// active worker open its row window. Reusable across Fit calls.
func (c *Coordinator) Open(ctx context.Context, path string) error {
	if len(c.workers) == 0 {
		return errors.New("dist: no workers")
	}
	var st statResp
	if err := c.callOne(ctx, c.workers[0], "stat", &statReq{Path: path}, &st); err != nil {
		return err
	}
	shards, err := PlanShards(st.Rows, len(c.workers))
	if err != nil {
		return err
	}
	c.path = path
	c.rows, c.cols, c.hasLabels = st.Rows, st.Cols, st.HasLabels
	c.curCols = st.Cols
	c.groupRows = exec.GroupRows(st.Rows)
	c.active = c.workers[:len(shards)]

	var wg sync.WaitGroup
	errs := make([]error, len(shards))
	for i, shard := range shards {
		w := c.active[i]
		w.lo, w.hi = shard.Lo, shard.Hi
		wg.Add(1)
		go func(i int, w *workerConn, shard Range) {
			defer wg.Done()
			errs[i] = c.callOne(ctx, w, "open",
				&openReq{Path: path, Lo: shard.Lo, Hi: shard.Hi, GroupRows: c.groupRows}, &openResp{})
		}(i, w, shard)
	}
	wg.Wait()
	c.rounds.Add(1)
	roundsTotal.With("open").Inc()
	return errors.Join(errs...)
}

// callOne performs one typed RPC on a single worker.
func (c *Coordinator) callOne(ctx context.Context, w *workerConn, op string, req, resp any) error {
	body, err := encodeBody(req)
	if err != nil {
		return err
	}
	reply, err := c.call(ctx, w, request{Op: op, body: body})
	if err != nil {
		return err
	}
	return decodeBody(reply, resp)
}

// Fit opens path (sharded across the workers) and runs the fit spec
// describes, returning the inner model (*logreg.Model,
// *kmeans.Result, *modelio.Pipeline, ...) — the same values a local
// fit produces, bit for bit.
func (c *Coordinator) Fit(ctx context.Context, path string, spec Spec) (any, error) {
	sp := obs.StartSpan("dist", "fit "+spec.Algo)
	defer sp.End()
	if err := c.Open(ctx, path); err != nil {
		return nil, err
	}
	if _, err := c.broadcast(ctx, request{Op: "reset"}); err != nil {
		return nil, err
	}
	return c.fitSpec(ctx, spec)
}

// fitSpec runs one estimator's or pipeline's own driver over the open,
// already-reset shards: spec's fields become the trainer's Options and
// the coordinator is the Source, so validation, defaults and every
// optimizer step are the ones a local fit executes.
func (c *Coordinator) fitSpec(ctx context.Context, spec Spec) (any, error) {
	src := source{c}
	switch spec.Algo {
	case "logistic":
		return logreg.TrainOn(ctx, src, spec.Binarize, spec.Positive, logreg.Options{
			Lambda: spec.Lambda, NoIntercept: spec.NoIntercept,
			MaxIterations: spec.MaxIterations, GradTol: spec.GradTol,
		})
	case "softmax":
		return logreg.TrainSoftmaxOn(ctx, src, spec.Classes, logreg.Options{
			Lambda: spec.Lambda, NoIntercept: spec.NoIntercept,
			MaxIterations: spec.MaxIterations, GradTol: spec.GradTol,
		})
	case "linear", "linear-exact":
		opts := linreg.Options{
			Lambda: spec.Lambda, NoIntercept: spec.NoIntercept,
			MaxIterations: spec.MaxIterations, GradTol: spec.GradTol,
		}
		if spec.Algo == "linear-exact" {
			return linreg.TrainExactOn(ctx, src, opts)
		}
		return linreg.TrainOn(ctx, src, opts)
	case "bayes":
		return bayes.TrainOn(ctx, src, spec.Classes, bayes.Options{VarSmoothing: spec.VarSmoothing})
	case "kmeans":
		return c.fitKMeans(ctx, spec)
	case "pca":
		return pca.FitOn(ctx, src, pca.Options{
			Components: spec.Components, MaxIterations: spec.MaxIterations,
			Tol: spec.Tol, Seed: spec.Seed,
		})
	case "standard-scaler":
		return preprocess.FitStandardOn(ctx, src)
	case "minmax-scaler":
		return preprocess.FitMinMaxOn(ctx, src)
	case "pipeline":
		return c.fitPipeline(ctx, spec)
	case "sgd":
		return nil, errors.New("dist: SGD is a sequential single-pass trainer; its updates depend on row order across the whole dataset and cannot be sharded — train locally instead")
	}
	return nil, fmt.Errorf("dist: unknown algorithm %q", spec.Algo)
}

// fitKMeans runs the shared Lloyd driver over the sharded data plane:
// every data-touching step is a broadcast round (or a routed
// single-shard call), every bit of model math happens in RunPlane.
func (c *Coordinator) fitKMeans(ctx context.Context, spec Spec) (*kmeans.Result, error) {
	opts := kmeans.Options{
		K:                spec.K,
		MaxIterations:    spec.MaxIterations,
		Tol:              spec.Tol,
		Seed:             spec.Seed,
		RandomInit:       spec.RandomInit,
		RunAllIterations: spec.RunAllIterations,
	}
	if spec.InitCentroids != nil {
		d := c.curCols
		if spec.K < 1 || len(spec.InitCentroids) != spec.K*d {
			return nil, fmt.Errorf("dist: InitCentroids has %d values, want %dx%d", len(spec.InitCentroids), spec.K, d)
		}
		init := mat.NewDense(spec.K, d)
		for i := 0; i < spec.K; i++ {
			init.SetRow(i, spec.InitCentroids[i*d:(i+1)*d])
		}
		opts.InitCentroids = init
	}
	return kmeans.RunPlane(ctx, plane{kmeans.SourcePlane{Src: source{c}}, c}, opts)
}

// fitPipeline fits each transformer stage distributively, pushes the
// fitted stage to every worker (extending their fused views), then
// fits the final estimator — materializing the transformed shards
// once first for multi-epoch finals, exactly like the local pipeline.
func (c *Coordinator) fitPipeline(ctx context.Context, spec Spec) (*modelio.Pipeline, error) {
	if spec.Final == nil {
		return nil, errors.New("dist: pipeline has no final estimator")
	}
	p := &modelio.Pipeline{}
	for i, stage := range spec.Stages {
		out, err := c.fitStage(ctx, stage)
		if err != nil {
			return nil, fmt.Errorf("dist: pipeline stage %d: %w", i, err)
		}
		p.Stages = append(p.Stages, out)
	}

	// Multi-epoch finals re-scan the transformed data every
	// iteration; materialize the shard caches once, like the local
	// pipeline's single fused materialization pass. Bounded-pass
	// finals (bayes, exact linear, pca) stream off the fused views.
	if len(spec.Stages) > 0 && multiEpoch(spec.Final.Algo) {
		if _, err := c.broadcast(ctx, request{Op: "materialize"}); err != nil {
			return nil, err
		}
	}
	final, err := c.fitSpec(ctx, *spec.Final)
	if err != nil {
		return nil, err
	}
	p.Stages = append(p.Stages, final)
	return p, nil
}

// fitStage fits one transformer stage on the current views and has
// every worker fuse it on, shipped as the bytes Save would write.
func (c *Coordinator) fitStage(ctx context.Context, stage Spec) (any, error) {
	switch stage.Algo {
	case "standard-scaler", "minmax-scaler", "pca":
	default:
		return nil, fmt.Errorf("dist: unsupported pipeline stage %q", stage.Algo)
	}
	fitted, err := c.fitSpec(ctx, stage)
	if err != nil {
		return nil, err
	}
	var model bytes.Buffer
	if err := modelio.Save(&model, fitted); err != nil {
		return nil, err
	}
	body, err := encodeBody(&stageReq{Model: model.Bytes()})
	if err != nil {
		return nil, err
	}
	replies, err := c.broadcast(ctx, request{Op: "stage", body: body})
	if err != nil {
		return nil, err
	}
	var resp stageResp
	if err := decodeBody(replies[0], &resp); err != nil {
		return nil, err
	}
	c.curCols = resp.OutCols
	return fitted, nil
}

// multiEpoch reports whether an algorithm re-scans the data across
// iterations — the complement of the root package's streamingFit
// markers.
func multiEpoch(algo string) bool {
	switch algo {
	case "bayes", "linear-exact", "pca", "standard-scaler", "minmax-scaler":
		return false
	}
	return true
}

// plane is the sharded kmeans.DataPlane: the assignment and seeding
// passes are reduce rounds like any other (the embedded SourcePlane);
// the sequential k-means++ prefix walk chains shard to shard carrying
// the running accumulator; row fetches route to the owning shard.
type plane struct {
	kmeans.SourcePlane
	c *Coordinator
}

// SamplePrefix implements kmeans.DataPlane: shards are walked in
// order, each resuming the running prefix sum where the previous
// left off — the distributed transcription of the flat sequential
// walk (same additions, same comparisons).
func (p plane) SamplePrefix(ctx context.Context, target float64) (int, error) {
	acc := 0.0
	for _, w := range p.c.active {
		var resp sampleResp
		if err := p.c.callOne(ctx, w, "kmeans/sample", &sampleReq{Acc: acc, Target: target}, &resp); err != nil {
			return 0, err
		}
		if resp.Found {
			return w.lo + resp.Idx, nil
		}
		acc = resp.Acc
	}
	// Mass fell short of target (floating-point shortfall): the local
	// walk falls back to the last row.
	return p.c.rows - 1, nil
}

// FetchRow implements kmeans.DataPlane, routing to the owning shard.
func (p plane) FetchRow(ctx context.Context, i int, dst []float64) (float64, error) {
	for _, w := range p.c.active {
		if i >= w.lo && i < w.hi {
			var resp rowResp
			if err := p.c.callOne(ctx, w, "row", &rowReq{I: i - w.lo}, &resp); err != nil {
				return 0, err
			}
			copy(dst, resp.Row)
			return resp.Stall, nil
		}
	}
	return 0, fmt.Errorf("dist: row %d outside every shard", i)
}

// GatherAssignments implements kmeans.DataPlane, concatenating shard
// assignments in shard order.
func (p plane) GatherAssignments(ctx context.Context) ([]int, error) {
	replies, err := p.c.broadcast(ctx, request{Op: "kmeans/gather"})
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, p.c.rows)
	for _, reply := range replies {
		var r gatherResp
		if err := decodeBody(reply, &r); err != nil {
			return nil, err
		}
		out = append(out, r.Assignments...)
	}
	return out, nil
}
