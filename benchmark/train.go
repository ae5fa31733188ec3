package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"m3"
	"m3/internal/dist"
	"m3/internal/mmap"
	"m3/internal/store"
)

// regime is how a train phase reaches its table.
type regime int

const (
	// warm: the table stays resident; kernels do the work.
	warm regime = iota
	// cold: the table is evicted before every fit and at every
	// iteration boundary; the fault path does the work.
	cold
	// sharded: fits go through Cluster.Fit over loopback workers.
	sharded
)

// regimeOf is the regime of each workload's logreg and k-means fits.
// The pipeline fit is local and warm in every workload: ISSUE 14 puts
// it on train_warm only, and through Cluster.Fit, where every shard
// worker writes a scratch of its own back to the disk, it spread by 13
// to 25 % between runs of the same code.
var regimeOf = map[string]regime{"train_warm": warm, "train_cold": cold, "train_dist": sharded, "serve": warm}

const (
	warmFloor   = 0.99 // least resident share before a warm fit
	coldCeiling = 0.02 // greatest resident share after an eviction
)

// trainer fits the three estimators on one table in one regime.
type trainer struct {
	in     *inputs
	tbl    table
	regime regime
	eng    *m3.Engine
	t      *m3.Table
	// region is the live mapping of the table: what residency is
	// measured on and what eviction drops.
	region  *mmap.Region
	cluster *m3.Cluster
	workers []*dist.Worker
	// marks cut the fit being timed into segments.
	marks marks
	// fit runs one estimator; the traced run substitutes a version
	// that records spans around the layers' public functions.
	fit func(ctx context.Context, name string, cb func(m3.IterInfo) bool) (m3.Model, error)

	evictMs, evictFrac []float64
}

func newTrainer(ctx context.Context, in *inputs, tbl table, r regime) (*trainer, error) {
	tr := &trainer{in: in, tbl: tbl, regime: r}
	tr.eng = m3.New(m3.Config{Mode: m3.MemoryMapped, Workers: runtime.NumCPU(), TempDir: in.dir})
	t, err := tr.eng.Open(tbl.path)
	if err != nil {
		tr.close()
		return nil, err
	}
	tr.t = t
	mapped, ok := t.X.Store().(*store.Mapped)
	if !ok {
		tr.close()
		return nil, fmt.Errorf("%s: expected a mapped store, got %T", tbl.path, t.X.Store())
	}
	tr.region = mapped.Region()
	tr.fit = func(ctx context.Context, name string, cb func(m3.IterInfo) bool) (m3.Model, error) {
		if tr.inRegime(name) == sharded {
			return tr.cluster.Fit(ctx, estimator(name, in.seed, nil), tbl.path)
		}
		est := estimator(name, in.seed, cb)
		if p, ok := est.(m3.Pipeline); ok {
			// The end of each stage's fit is a boundary too: the
			// callback first runs after two scans and the
			// materialization.
			for i, stage := range p.Stages {
				p.Stages[i] = markedStage{stage, &tr.marks}
			}
		}
		return tr.eng.Fit(ctx, est, tr.t)
	}
	if r == sharded {
		if err := tr.dial(ctx); err != nil {
			tr.close()
			return nil, err
		}
	}
	return tr, nil
}

// dial starts nproc one-worker shard servers on loopback and connects
// to them: the same thread count as a local fit.
func (tr *trainer) dial(ctx context.Context) error {
	var addrs []string
	for range runtime.NumCPU() {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		w := dist.NewWorker(dist.WorkerConfig{Mode: m3.MemoryMapped, Workers: 1})
		tr.workers = append(tr.workers, w)
		addrs = append(addrs, ln.Addr().String())
		if len(addrs) == 1 {
			// A sharded fit has no callback; the requests that reach
			// the first worker are its iteration boundaries.
			ln = markingListener{ln, &tr.marks}
		}
		go w.Serve(ln) // returns once Shutdown closes ln
	}
	var err error
	tr.cluster, err = m3.DialCluster(ctx, addrs, m3.ClusterOptions{})
	return err
}

// inRegime is the regime the named fit runs in: the trainer's, except
// that the pipeline is always fitted locally on the warm table.
func (tr *trainer) inRegime(name string) regime {
	if name == "pipeline" {
		return warm
	}
	return tr.regime
}

func (tr *trainer) close() error {
	var errs []error
	if tr.cluster != nil {
		errs = append(errs, tr.cluster.Close())
	}
	for _, w := range tr.workers {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, w.Shutdown(ctx))
		cancel()
	}
	errs = append(errs, tr.eng.Close())
	return errors.Join(errs...)
}

// resident is the share of the table's pages in memory.
func (tr *trainer) resident() (float64, error) {
	res, total, err := tr.region.Residency()
	if err != nil {
		return 0, err
	}
	return float64(res) / float64(total), nil
}

// ensureWarm faults the table in if it is not resident and reports
// whether it is afterwards.
func (tr *trainer) ensureWarm() bool {
	frac, err := tr.resident()
	if err == nil && frac < warmFloor {
		var sink byte
		b := tr.region.Bytes()
		for off := 0; off < len(b); off += mmap.PageSize() {
			sink += b[off]
		}
		runtime.KeepAlive(sink)
		frac, err = tr.resident()
	}
	return err == nil && frac >= warmFloor
}

// evict empties the table from memory, records how long that took and
// how much stayed, and reports whether the table is now cold.
func (tr *trainer) evict() (time.Duration, bool) {
	start := time.Now()
	frac, err := evict(tr.region)
	d := time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "evict:", err)
	}
	tr.evictMs = append(tr.evictMs, d.Seconds()*1e3)
	tr.evictFrac = append(tr.evictFrac, frac)
	return d, err == nil && frac <= coldCeiling
}

// marks are the instants that cut a timed fit into segments: the
// iteration boundaries of a local fit, from its callback, and of a
// sharded fit, from the arrival of each request at the first shard
// worker. A boundary has two instants because the time between them,
// an eviction, belongs to no segment.
type marks struct {
	mu sync.Mutex
	at []time.Time
}

func (m *marks) add(enter, exit time.Time) {
	m.mu.Lock()
	m.at = append(m.at, enter, exit)
	m.mu.Unlock()
}

// cut returns the seconds of the segments between start, the
// boundaries added since the last cut, and end.
func (m *marks) cut(start, end time.Time) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var segs []float64
	for i := 0; i < len(m.at); i += 2 {
		if m.at[i].Before(start) {
			continue // a request between two fits
		}
		segs = append(segs, m.at[i].Sub(start).Seconds())
		start = m.at[i+1]
	}
	m.at = m.at[:0]
	return append(segs, end.Sub(start).Seconds())
}

// markedStage marks the end of a pipeline stage's fit.
type markedStage struct {
	m3.Transformer
	marks *marks
}

func (s markedStage) FitTransform(ctx context.Context, ds *m3.Dataset) (m3.TransformerModel, error) {
	model, err := s.Transformer.FitTransform(ctx, ds)
	now := time.Now()
	s.marks.add(now, now)
	return model, err
}

// markingListener marks the arrival of every request on the
// connections it accepts: the first read after a write, or after the
// connection opened.
type markingListener struct {
	net.Listener
	marks *marks
}

func (l markingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &markingConn{Conn: c, marks: l.marks, answered: true}, nil
}

// markingConn is used by one goroutine, the worker's connection
// handler, which reads a request and then writes its answer.
type markingConn struct {
	net.Conn
	marks    *marks
	answered bool
}

func (c *markingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.answered {
		c.answered = false
		now := time.Now()
		c.marks.add(now, now)
	}
	return n, err
}

func (c *markingConn) Write(p []byte) (int, error) {
	c.answered = true
	return c.Conn.Write(p)
}

// fitResult is one timed fit.
type fitResult struct {
	// segments are the fit's wall time cut at its iteration
	// boundaries, eviction time excluded; seconds is their sum.
	segments []float64
	seconds  float64
	allocMB  float64 // runtime.MemStats.TotalAlloc delta
	ok       bool    // no error, saved bytes equal the reference, regime held
}

// timedFit runs one estimator and checks its saved bytes.
func (tr *trainer) timedFit(ctx context.Context, name string) fitResult {
	var ok bool
	evictHere := func() {}
	if tr.inRegime(name) == cold {
		_, ok = tr.evict()
		evictHere = func() {
			_, cold := tr.evict()
			ok = ok && cold
		}
	} else {
		ok = tr.ensureWarm()
	}
	cb := func(m3.IterInfo) bool {
		enter := time.Now()
		evictHere()
		tr.marks.add(enter, time.Now())
		return true
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	model, err := tr.fit(ctx, name, cb)
	end := time.Now()
	runtime.ReadMemStats(&after)
	res := fitResult{
		segments: tr.marks.cut(start, end),
		allocMB:  float64(after.TotalAlloc-before.TotalAlloc) / 1e6,
	}
	for _, s := range res.segments {
		res.seconds += s
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "fit %s: %v\n", name, err)
		return res
	}
	saved, err := saveBytes(model, filepath.Join(tr.in.dir, "fit-"+name+".model"))
	if err != nil {
		fmt.Fprintf(os.Stderr, "save %s: %v\n", name, err)
		return res
	}
	res.ok = ok && tr.tbl.matches(name, saved)
	return res
}

// trainSamples is what the fits of a run measured: per estimator, one
// entry per repetition.
type trainSamples struct {
	seconds  map[string][]float64
	segments map[string][][]float64
	allocMB  map[string][]float64
}

// repeat runs repetitions of the named fits for about d, at least min
// of them, and adds what they measured to s. It starts another
// repetition only while half of one still fits into d, so that a run's
// slices neither overrun nor fall short on average.
func (tr *trainer) repeat(ctx context.Context, names []string, d time.Duration, min int, rep *report, s *trainSamples) {
	if s.seconds == nil {
		s.seconds, s.segments, s.allocMB = map[string][]float64{}, map[string][][]float64{}, map[string][]float64{}
	}
	start := time.Now()
	var last time.Duration
	for n := 0; n < min || time.Since(start)+last/2 < d; n++ {
		began := time.Now()
		runtime.GC()
		for _, name := range names {
			res := tr.timedFit(ctx, name)
			rep.op(res.ok)
			s.seconds[name] = append(s.seconds[name], res.seconds)
			s.segments[name] = append(s.segments[name], res.segments)
			s.allocMB[name] = append(s.allocMB[name], res.allocMB)
		}
		last = time.Since(began)
	}
}

// report writes the fits' end-to-end metrics.
func (s trainSamples) report(rep *report) {
	alloc := 0.0
	for _, name := range fitNames {
		v, n := calmSum(s.segments[name])
		fmt.Printf("%s fits in %d segments, s: %.3f\n", name, len(s.segments[name][len(s.segments[name])-1]), s.seconds[name])
		rep.set(name+"_fit_s", v, n)
		alloc += median(s.allocMB[name])
	}
	rep.set("fit_alloc_mb", alloc, len(s.allocMB["logreg"]))
}
