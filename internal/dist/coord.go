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

	"m3/internal/core"
	"m3/internal/exec"
	"m3/internal/fit"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/modelio"
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
// It is not safe for concurrent use: one fit at a time.
type Coordinator struct {
	opts    Options
	workers []*workerConn
	// active are the workers holding shards of the open dataset, in
	// ascending shard order — the merge order.
	active []*workerConn

	rows, cols int
	hasLabels  bool

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

// open shards path across the dialed workers: it probes the file's
// shape, plans merge-group-aligned contiguous shards, and has each
// active worker open its row window.
func (c *Coordinator) open(ctx context.Context, path string) error {
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
	c.rows, c.cols, c.hasLabels = st.Rows, st.Cols, st.HasLabels
	groupRows := exec.GroupRows(st.Rows)
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
				&openReq{Path: path, Lo: shard.Lo, Hi: shard.Hi, GroupRows: groupRows}, &openResp{})
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

// Dataset opens path sharded across the workers, returns every
// worker's view to its raw shard, and hands the shards back as a
// dataset whose rows are remote: an estimator fits it with its
// trainer's own driver, and every data pass the driver makes is one
// broadcast round. The dataset is valid until the next Dataset call.
func (c *Coordinator) Dataset(ctx context.Context, path string) (*core.Dataset, error) {
	if err := c.open(ctx, path); err != nil {
		return nil, err
	}
	if _, err := c.broadcast(ctx, request{Op: "reset"}); err != nil {
		return nil, err
	}
	return core.RemoteDataset(&shards{c: c, cols: c.cols}), nil
}

// shards is the open dataset as a fit sees it: the fit.Source whose
// every pass is one broadcast "reduce" round, the kmeans.DataPlane whose
// sequential steps chain from shard to shard or go to the shard that
// owns a row, and the core.Remote whose stages and cache are the
// workers' views. It is the only place this package meets a fit, and it
// meets it as bytes: a pass's argument goes out encoded, and each
// shard's reply goes — in shard order, which is global row order — to
// the round's Absorb, which merges that shard's group states in row
// order before the next round reuses the reply buffers.
type shards struct {
	c *Coordinator
	// cols is the width of the workers' views: the file's, until a
	// fused stage changes it.
	cols int
}

// Dims implements fit.Source with the global shape.
func (s *shards) Dims() (int, int) { return s.c.rows, s.cols }

// Shard implements fit.Source: the coordinator holds no rows, so
// passes build against an empty shard of the views' width and the
// file's labelledness — enough to allocate and merge states.
func (s *shards) Shard() *fit.Shard {
	sh := &fit.Shard{Cols: s.cols}
	if s.c.hasLabels {
		sh.Labels = []float64{}
	}
	return sh
}

// Run implements fit.Source.
func (s *shards) Run(ctx context.Context, r fit.Round) (float64, error) {
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

// Fuse implements core.Remote: every worker fuses the stage onto its
// view, shipped as the bytes Save would write.
func (s *shards) Fuse(ctx context.Context, stage any) error {
	var model bytes.Buffer
	if err := modelio.Save(&model, stage); err != nil {
		return err
	}
	body, err := encodeBody(&stageReq{Model: model.Bytes()})
	if err != nil {
		return err
	}
	replies, err := s.c.broadcast(ctx, request{Op: "stage", body: body})
	if err != nil {
		return err
	}
	var resp stageResp
	if err := decodeBody(replies[0], &resp); err != nil {
		return err
	}
	s.cols = resp.OutCols
	return nil
}

// Materialize implements core.Remote: every worker streams its fused
// view once into a cache, which its later passes read instead.
func (s *shards) Materialize(ctx context.Context) error {
	_, err := s.c.broadcast(ctx, request{Op: "materialize"})
	return err
}

// AssignPass implements kmeans.DataPlane.
func (s *shards) AssignPass(ctx context.Context, centroids []float64, k int) (*kmeans.AssignPartial, float64, error) {
	return kmeans.SourcePlane{Src: s}.AssignPass(ctx, centroids, k)
}

// SeedPass implements kmeans.DataPlane.
func (s *shards) SeedPass(ctx context.Context, prev []float64) (float64, float64, error) {
	return kmeans.SourcePlane{Src: s}.SeedPass(ctx, prev)
}

// SamplePrefix implements kmeans.DataPlane: shards are walked in
// order, each resuming the running prefix sum where the previous
// left off — the distributed transcription of the flat sequential
// walk (same additions, same comparisons).
func (s *shards) SamplePrefix(ctx context.Context, target float64) (int, error) {
	acc := 0.0
	for _, w := range s.c.active {
		var resp sampleResp
		if err := s.c.callOne(ctx, w, "kmeans/sample", &sampleReq{Acc: acc, Target: target}, &resp); err != nil {
			return 0, err
		}
		if resp.Found {
			return w.lo + resp.Idx, nil
		}
		acc = resp.Acc
	}
	// Mass fell short of target (floating-point shortfall): the local
	// walk falls back to the last row.
	return s.c.rows - 1, nil
}

// FetchRow implements kmeans.DataPlane, routing to the owning shard.
func (s *shards) FetchRow(ctx context.Context, i int, dst []float64) (float64, error) {
	for _, w := range s.c.active {
		if i >= w.lo && i < w.hi {
			var resp rowResp
			if err := s.c.callOne(ctx, w, "row", &rowReq{I: i - w.lo}, &resp); err != nil {
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
func (s *shards) GatherAssignments(ctx context.Context) ([]int, error) {
	replies, err := s.c.broadcast(ctx, request{Op: "kmeans/gather"})
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, s.c.rows)
	for _, reply := range replies {
		var r gatherResp
		if err := decodeBody(reply, &r); err != nil {
			return nil, err
		}
		out = append(out, r.Assignments...)
	}
	return out, nil
}
