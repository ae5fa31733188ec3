package main

// The traced run: each workload runs once more with the benchmark's
// own span recorder wrapped around the public functions of each
// module, from the outside in (whole fit → one trainer pass → exec
// scan → kernel → fault → device read). Nothing inside the program is
// instrumented and the process tracer is never installed, so the
// untraced run measures the program as shipped.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"m3"
	"m3/internal/blas"
	"m3/internal/core"
	"m3/internal/dataset"
	"m3/internal/exec"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/knn"
	"m3/internal/ml/logreg"
	"m3/internal/mmap"
	"m3/internal/obs"
	"m3/internal/optimize"
)

// probeReps is how often a layer probe repeats; it reports the median.
const probeReps = 3

// ladder is the state of one traced run.
type ladder struct {
	in  *inputs
	tr  *obs.Trace
	rep *report
}

// timed runs fn under a span and returns its seconds.
func (l *ladder) timed(cat, name string, fn func() error) (float64, error) {
	sp := l.tr.Start(cat, name)
	start := time.Now()
	err := fn()
	d := time.Since(start).Seconds()
	sp.End()
	return d, err
}

// probe is the median of probeReps timed runs of fn; before, when
// non-nil, runs untimed ahead of each.
func (l *ladder) probe(cat, name string, before func() error, fn func() error) (float64, error) {
	var secs []float64
	for range probeReps {
		if before != nil {
			if err := before(); err != nil {
				return 0, err
			}
		}
		s, err := l.timed(cat, name, fn)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		secs = append(secs, s)
	}
	return median(secs), nil
}

// gbps is a rate in GB/s.
func gbps(bytes int64, seconds float64) float64 { return float64(bytes) / 1e9 / seconds }

// selfSeconds sums, per span name, each complete span's duration minus
// the part of it that its child spans on the same track cover.
func selfSeconds(events []obs.Event) map[string]float64 {
	var spans []obs.Event
	for _, e := range events {
		if e.Ph == "X" && e.Tid == obs.ControlTid {
			spans = append(spans, e)
		}
	}
	// Parents sort before their children: earlier start, then longer.
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].Ts < spans[j].Ts {
			return true
		}
		return spans[i].Ts <= spans[j].Ts && spans[i].Dur > spans[j].Dur
	})
	self := map[string]float64{}
	var open []obs.Event // enclosing spans, outermost first
	for _, s := range spans {
		for len(open) > 0 && s.Ts >= open[len(open)-1].Ts+open[len(open)-1].Dur {
			open = open[:len(open)-1]
		}
		self[s.Name] += s.Dur / 1e6
		if len(open) > 0 {
			self[open[len(open)-1].Name] -= s.Dur / 1e6
		}
		open = append(open, s)
	}
	return self
}

// tracedRun measures one workload's per-layer metrics and writes its
// Chrome trace.
func tracedRun(ctx context.Context, in *inputs, cfg config, budget time.Duration, rep *report) error {
	l := &ladder{in: in, tr: obs.NewTrace(), rep: rep}
	var err error
	if cfg.workload == "serve" {
		err = l.serveLadder(ctx, budget)
	} else {
		err = l.trainLadder(ctx, regimeOf[cfg.workload])
	}
	if err == nil {
		err = l.blasProbes()
	}
	if err != nil {
		return err
	}
	if n := l.tr.OpenSpans(); n != 0 {
		return fmt.Errorf("traced run left %d spans open", n)
	}
	dir := filepath.Join(cfg.dir, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, cfg.workload+".json"))
	if err != nil {
		return err
	}
	if err := l.tr.WriteJSON(f); err != nil {
		return errors.Join(err, f.Close())
	}
	fmt.Printf("trace: %s (%d events)\n", f.Name(), len(l.tr.Events()))
	return f.Close()
}

// --- train_* ----------------------------------------------------------

// timedObjective records one span per objective evaluation.
type timedObjective struct {
	optimize.Objective
	l       *ladder
	seconds []float64
}

func (o *timedObjective) Eval(x, grad []float64) (v float64) {
	s, _ := o.l.timed("logreg", "logreg.eval", func() error {
		v = o.Objective.Eval(x, grad)
		return nil
	})
	o.seconds = append(o.seconds, s)
	return v
}

// timedPlane records one span per k-means data pass.
type timedPlane struct {
	kmeans.DataPlane
	l            *ladder
	seed, assign []float64
}

func (p *timedPlane) SeedPass(ctx context.Context, prev []float64) (mass, stall float64, err error) {
	s, _ := p.l.timed("kmeans", "kmeans.seed_pass", func() error {
		mass, stall, err = p.DataPlane.SeedPass(ctx, prev)
		return nil
	})
	p.seed = append(p.seed, s)
	return mass, stall, err
}

func (p *timedPlane) AssignPass(ctx context.Context, centroids []float64, k int) (part *kmeans.AssignPartial, stall float64, err error) {
	s, _ := p.l.timed("kmeans", "kmeans.assign_pass", func() error {
		part, stall, err = p.DataPlane.AssignPass(ctx, centroids, k)
		return nil
	})
	p.assign = append(p.assign, s)
	return part, stall, err
}

// tracedFits is what the traced fit function of a trainer collected.
type tracedFits struct {
	evals, seedPass, assignPass []float64 // seconds per call
	fits                        map[string]int
}

// traceFits replaces tr.fit with one that opens a span per fit and,
// for local logreg and k-means, drives the trainer's own loop through
// the timing wrappers: logreg.TrainWith over logreg.NewParallelObjective
// and kmeans.RunPlane over kmeans.NewLocalPlane, which is what
// Engine.Fit runs underneath.
func (l *ladder) traceFits(tr *trainer) *tracedFits {
	tf := &tracedFits{fits: map[string]int{}}
	plain := tr.fit
	workers := runtime.NumCPU()
	tr.fit = func(ctx context.Context, name string, evict func(m3.IterInfo) bool) (model m3.Model, err error) {
		tf.fits[name]++
		// An eviction at an iteration boundary is a child span, so
		// that it does not count as the optimizer's own time.
		cb := evict
		if tr.inRegime(name) == cold {
			cb = func(info m3.IterInfo) (more bool) {
				l.timed("mmap", "evict", func() error {
					more = evict(info)
					return nil
				})
				return more
			}
		}
		_, err = l.timed("fit", "fit "+name, func() error {
			switch {
			case name == "logreg" && tr.regime != sharded:
				opts := m3.LogisticOptions{MaxIterations: 10, FitOptions: m3.FitOptions{Workers: workers, Callback: cb}}
				y := tr.eng.Dataset(tr.t).BinaryLabels(0)
				res := logreg.ResolveOptions(opts)
				obj, err := logreg.NewParallelObjective(tr.t.X, y, res.Lambda, !res.NoIntercept, workers)
				if err != nil {
					return err
				}
				obj.Ctx = ctx
				timed := &timedObjective{Objective: obj, l: l}
				m, err := logreg.TrainWith(ctx, timed, tr.t.X.Cols(), opts)
				tf.evals = append(tf.evals, timed.seconds...)
				model = &m3.FittedLogistic{LogisticModel: m}
				return err
			case name == "kmeans" && tr.regime != sharded:
				opts := estimator(name, l.in.seed, cb).(m3.KMeansClustering).Options
				opts.Workers = workers
				plane := &timedPlane{DataPlane: kmeans.NewLocalPlane(tr.t.X, workers), l: l}
				res, err := kmeans.RunPlane(ctx, plane, opts)
				tf.seedPass = append(tf.seedPass, plane.seed...)
				tf.assignPass = append(tf.assignPass, plane.assign...)
				model = &m3.FittedKMeans{KMeansResult: res}
				return err
			}
			var err error
			model, err = plain(ctx, name, cb)
			return err
		})
		return model, err
	}
	return tf
}

// repSeconds is the median time of one repetition's three fits.
func (s trainSamples) repSeconds() float64 {
	var reps []float64
	for i := range s.seconds["logreg"] {
		sum := 0.0
		for _, name := range fitNames {
			sum += s.seconds[name][i]
		}
		reps = append(reps, sum)
	}
	return median(reps)
}

func (l *ladder) trainLadder(ctx context.Context, r regime) error {
	tr, err := newTrainer(ctx, l.in, l.in.train, r)
	if err != nil {
		return err
	}
	defer tr.close()
	tableBytes := tr.t.X.SizeBytes()
	set := l.rep.set

	// The workload itself, untraced then traced: the difference is
	// what the spans cost.
	var untraced, traced trainSamples
	tr.repeat(ctx, fitNames, 0, 1, l.rep, &trainSamples{}) // warm-up
	tr.repeat(ctx, fitNames, 0, probeReps, l.rep, &untraced)
	var before m3.ClusterStats
	if r == sharded {
		before = tr.cluster.Stats()
	}
	scratch := tr.eng.Stats()
	tf := l.traceFits(tr)
	tr.repeat(ctx, fitNames, 0, probeReps, l.rep, &traced)
	set("trace.overhead_frac", traced.repSeconds()/untraced.repSeconds()-1, probeReps)
	self := selfSeconds(l.tr.Events())

	if n := tf.fits["pipeline"]; n > 0 {
		now := tr.eng.Stats()
		set("core.scratch_allocs", float64(now.Allocs-scratch.Allocs)/float64(n), n)
		set("core.scratch_mb", float64(now.Bytes-scratch.Bytes)/float64(n)/1e6, n)
	}
	if len(tf.evals) > 0 {
		n := tf.fits["logreg"]
		eval := median(tf.evals)
		set("logreg.evals", float64(len(tf.evals))/float64(n), n)
		set("logreg.eval_ms", eval*1e3, len(tf.evals))
		set("logreg.eval_gbps", gbps(tableBytes, eval), len(tf.evals))
		set("optimize.lbfgs_self_ms", self["fit logreg"]/float64(n)*1e3, n)
	}
	if len(tf.assignPass) > 0 {
		n := tf.fits["kmeans"]
		set("kmeans.passes", float64(len(tf.seedPass)+len(tf.assignPass))/float64(n), n)
		set("kmeans.seed_pass_ms", median(tf.seedPass)*1e3, len(tf.seedPass))
		set("kmeans.assign_pass_ms", median(tf.assignPass)*1e3, len(tf.assignPass))
		set("kmeans.driver_self_ms", self["fit kmeans"]/float64(n)*1e3, n)
	}
	if r == sharded {
		// No storage probes: the shard workers keep the table mapped,
		// and pages another mapping holds cannot be evicted.
		return l.distProbes(ctx, tr, before, traced)
	}
	if err := l.storageProbes(ctx, tr); err != nil {
		return err
	}
	if r == warm {
		if err := l.pipelineProbes(ctx, tr); err != nil {
			return err
		}
	}
	set("mmap.evict_ms", median(tr.evictMs), len(tr.evictMs))
	set("mmap.evict_resident_frac", quantile(tr.evictFrac, 1), len(tr.evictFrac))
	return nil
}

// sumRows is the cheapest real reduction: the exec scan with one
// streaming kernel on top.
func sumRows(scan exec.RowScan) error {
	_, _, err := exec.ReduceRows(scan,
		func() *float64 { return new(float64) },
		func(s *float64, _ int, row []float64) { *s += blas.Sum(row) },
		func(dst, src *float64) { *dst += *src })
	return err
}

// storageProbes climbs from the device to the exec scan on the train
// table: sequential read(2), the fault path, the scheduler alone and
// the scheduler with a streaming kernel, each warm and evicted.
func (l *ladder) storageProbes(ctx context.Context, tr *trainer) error {
	path := tr.tbl.path
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	fileBytes := fi.Size()
	tableBytes := tr.t.X.SizeBytes()
	set := l.rep.set
	evict := func() error {
		if _, cold := tr.evict(); !cold {
			return errors.New("table did not evict")
		}
		return nil
	}
	set("dataset.write_mbps", float64(fileBytes)/1e6/l.in.genSeconds, 1)

	readAll := func() error {
		_, _, _, err := dataset.ReadAll(path)
		return err
	}
	coldRead, err := l.probe("dataset", "dataset.ReadAll cold", evict, readAll)
	if err != nil {
		return err
	}
	warmRead, err := l.probe("dataset", "dataset.ReadAll warm", nil, readAll)
	if err != nil {
		return err
	}
	set("dataset.readall_cold_gbps", gbps(fileBytes, coldRead), probeReps)
	set("dataset.readall_warm_gbps", gbps(fileBytes, warmRead), probeReps)

	fault := func() error {
		r, err := mmap.MapFile(path)
		if err != nil {
			return err
		}
		if err := r.Advise(mmap.Sequential); err != nil {
			return errors.Join(err, r.Unmap())
		}
		var sink byte
		b := r.Bytes()
		for off := 0; off < len(b); off += mmap.PageSize() {
			sink += b[off]
		}
		runtime.KeepAlive(sink)
		return r.Unmap()
	}
	coldFault, err := l.probe("mmap", "mmap fault cold", evict, fault)
	if err != nil {
		return err
	}
	warmFault, err := l.probe("mmap", "mmap fault warm", nil, fault)
	if err != nil {
		return err
	}
	set("mmap.fault_cold_gbps", gbps(fileBytes, coldFault), probeReps)
	set("mmap.fault_warm_gbps", gbps(fileBytes, warmFault), probeReps)

	workers := runtime.NumCPU()
	scan := tr.t.X.ScanCtx(ctx, workers)
	set("exec.blocks", float64(len(scan.Blocks())), 1)
	noop, err := l.probe("exec", "exec.ForEachRow noop", nil, func() error {
		_, err := exec.ForEachRow(scan, func(int, []float64) {})
		return err
	})
	if err != nil {
		return err
	}
	set("exec.noop_scan_ms", noop*1e3, probeReps)
	sum := func() error { return sumRows(scan) }
	warmSum, err := l.probe("exec", "exec.ReduceRows sum warm", nil, sum)
	if err != nil {
		return err
	}
	oneSum, err := l.probe("exec", "exec.ReduceRows sum warm 1 worker", nil, func() error {
		return sumRows(tr.t.X.ScanCtx(ctx, 1))
	})
	if err != nil {
		return err
	}
	coldSum, err := l.probe("exec", "exec.ReduceRows sum cold", evict, sum)
	if err != nil {
		return err
	}
	set("exec.sum_warm_gbps", gbps(tableBytes, warmSum), probeReps)
	set("exec.sum_cold_gbps", gbps(tableBytes, coldSum), probeReps)
	set("exec.cold_over_fault_frac", coldFault/coldSum, probeReps)
	set("exec.workers_speedup", oneSum/warmSum, probeReps)
	if eval, ok := l.rep.value["logreg.eval_gbps"]; ok {
		fmt.Printf("ladder (GB/s): read cold %.2f → fault cold %.2f → exec sum cold %.2f | read warm %.2f → exec sum warm %.2f → logreg eval %.2f\n",
			gbps(fileBytes, coldRead), gbps(fileBytes, coldFault), gbps(tableBytes, coldSum),
			gbps(fileBytes, warmRead), gbps(tableBytes, warmSum), eval)
	}
	return nil
}

// blasProbes times the kernels the trainers and k-NN spend their time
// in, on rows that stay in cache: one thread, computed bytes.
func (l *ladder) blasProbes() error {
	const rows, cols, passes = 256, 784, 40
	x := make([]float64, rows*cols)
	for i := range x {
		x[i] = float64(i%251) / 251
	}
	w := make([]float64, cols)
	g := make([]float64, cols)
	centroids := append([]float64(nil), x[:5*cols]...)
	bytes := int64(rows * cols * 8 * passes)
	eachRow := func(fn func(row []float64)) func() error {
		return func() error {
			for range passes {
				for i := 0; i < rows; i++ {
					fn(x[i*cols : (i+1)*cols])
				}
			}
			return nil
		}
	}
	var sink float64
	kernels := []struct {
		metric string
		fn     func(row []float64)
	}{
		{"blas.dot_axpy_gbps", func(row []float64) { blas.Axpy(blas.Dot(row, w)*1e-9, row, g) }},
		{"blas.nearest_row_gbps", func(row []float64) { _, d := blas.NearestRow(row, 5, cols, centroids, cols); sink += d }},
		{"blas.sqdist_gbps", func(row []float64) { sink += blas.SqDist(row, w) }},
	}
	for _, k := range kernels {
		s, err := l.probe("blas", k.metric, nil, eachRow(k.fn))
		if err != nil {
			return err
		}
		l.rep.set(k.metric, gbps(bytes, s), probeReps)
	}
	runtime.KeepAlive(sink)

	const n = 64
	b := make([]float64, cols*n)
	for i := range b {
		b[i] = float64(i%127) / 127
	}
	c := make([]float64, rows*n)
	s, err := l.probe("blas", "blas.gemm_gflops", nil, func() error {
		for range passes {
			blas.Gemm(rows, n, cols, 1, x, cols, b, n, 0, c, n)
		}
		return nil
	})
	if err != nil {
		return err
	}
	l.rep.set("blas.gemm_gflops", 2*float64(rows*n*cols*passes)/1e9/s, probeReps)

	// The trainer pass as a share of what its kernel would reach if
	// every worker ran it at cache speed.
	if eval, ok := l.rep.value["logreg.eval_gbps"]; ok {
		roof := l.rep.value["blas.dot_axpy_gbps"] * float64(runtime.NumCPU())
		l.rep.set("logreg.eval_over_blas_frac", eval/roof, probeReps)
	}
	return nil
}

// pipelineProbes times the pipeline's stages and the engine calls it
// is made of, on the warm train table.
func (l *ladder) pipelineProbes(ctx context.Context, tr *trainer) error {
	set := l.rep.set
	tableBytes := tr.t.X.SizeBytes()
	workers := runtime.NumCPU()
	dir := l.in.dir

	openIn := func(mode m3.Mode) func() error {
		return func() error {
			eng := m3.New(m3.Config{Mode: mode, Workers: workers, TempDir: dir})
			_, err := eng.Open(tr.tbl.path)
			return errors.Join(err, eng.Close())
		}
	}
	s, err := l.probe("core", "Engine.Open mmap", nil, openIn(m3.MemoryMapped))
	if err != nil {
		return err
	}
	set("core.open_mmap_ms", s*1e3, probeReps)
	if s, err = l.probe("core", "Engine.Open heap", nil, openIn(m3.InMemory)); err != nil {
		return err
	}
	set("core.open_heap_s", s, probeReps)

	ds := tr.eng.Dataset(tr.t)
	var scaler, minmax m3.TransformerModel
	if s, err = l.probe("pipeline", "StandardScaler.FitTransform", nil, func() (err error) {
		scaler, err = m3.StandardScaler{}.FitTransform(ctx, ds)
		return err
	}); err != nil {
		return err
	}
	set("pipeline.scaler_fit_ms", s*1e3, probeReps)
	scaled, err := core.FusedDataset(ds, []core.BlockTransformer{scaler.(core.BlockTransformer)})
	if err != nil {
		return err
	}
	if s, err = l.probe("pipeline", "MinMaxScaler.FitTransform fused", nil, func() (err error) {
		minmax, err = m3.MinMaxScaler{}.FitTransform(ctx, scaled)
		return err
	}); err != nil {
		return err
	}
	set("pipeline.minmax_fit_ms", s*1e3, probeReps)

	fused, err := core.FusedDataset(ds, []core.BlockTransformer{scaler.(core.BlockTransformer), minmax.(core.BlockTransformer)})
	if err != nil {
		return err
	}
	if s, err = l.probe("core", "exec.ReduceRows sum fused", nil, func() error {
		return sumRows(fused.X.ScanCtx(ctx, workers))
	}); err != nil {
		return err
	}
	set("core.fused_sum_gbps", gbps(tableBytes, s), probeReps)
	set("core.fused_over_plain_frac", gbps(tableBytes, s)/l.rep.value["exec.sum_warm_gbps"], probeReps)
	if s, err = l.probe("core", "core.Materialize", nil, func() error {
		out, err := core.Materialize(ctx, fused, workers)
		if err != nil {
			return err
		}
		return out.Release()
	}); err != nil {
		return err
	}
	set("core.materialize_gbps", gbps(tableBytes, s), probeReps)

	model, err := tr.fit(ctx, "pipeline", nil)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.model")
	if s, err = l.probe("modelio", "Model.Save", nil, func() error { return model.Save(path) }); err != nil {
		return err
	}
	set("modelio.save_ms", s*1e3, probeReps)
	if s, err = l.probe("modelio", "m3.Load", nil, func() error {
		_, _, err := m3.Load(path)
		return err
	}); err != nil {
		return err
	}
	set("modelio.load_ms", s*1e3, probeReps)
	return nil
}

// distProbes prices a distributed round against the scan a worker
// does in it and against the same fit run locally.
func (l *ladder) distProbes(ctx context.Context, tr *trainer, before m3.ClusterStats, traced trainSamples) error {
	set := l.rep.set
	st := tr.cluster.Stats().Sub(before)
	fits := len(traced.seconds["logreg"])
	perFit := float64(st.Rounds) / float64(fits)
	set("dist.rounds", perFit, fits)
	set("dist.bytes_per_round", float64(st.BytesSent+st.BytesReceived)/float64(st.Rounds), int(st.Rounds))
	set("dist.straggler_wait_ms", st.StragglerWait.Seconds()*1e3/float64(st.Rounds), int(st.Rounds))

	// One round of the logreg fit: its Cluster.Stats rounds alone.
	before = tr.cluster.Stats()
	fitS, err := l.timed("dist", "Cluster.Fit logreg", func() error {
		_, err := tr.cluster.Fit(ctx, estimator("logreg", l.in.seed, nil), tr.tbl.path)
		return err
	})
	if err != nil {
		return err
	}
	rounds := tr.cluster.Stats().Sub(before).Rounds
	round := fitS / float64(rounds)
	set("dist.round_ms", round*1e3, int(rounds))

	shardRows := tr.tbl.rows / runtime.NumCPU()
	shard := tr.t.X.RowWindow(0, shardRows)
	y := tr.eng.Dataset(tr.t).BinaryLabels(0)[:shardRows]
	params := make([]float64, tr.t.X.Cols()+1)
	scanS, err := l.probe("dist", "logreg.GradGroups shard", nil, func() error {
		_, _, err := logreg.GradGroups(ctx, shard, y, params, true, 1, exec.GroupRows(tr.tbl.rows))
		return err
	})
	if err != nil {
		return err
	}
	set("dist.shard_scan_ms", scanS*1e3, probeReps)
	set("dist.overhead_frac", 1-scanS/round, probeReps)

	localS, err := l.probe("dist", "Engine.Fit logreg local", nil, func() error {
		_, err := tr.eng.Fit(ctx, estimator("logreg", l.in.seed, nil), tr.t)
		return err
	})
	if err != nil {
		return err
	}
	set("dist.over_local_frac", median(traced.seconds["logreg"])/localS, probeReps)
	return nil
}

// --- serve ------------------------------------------------------------

func (l *ladder) serveLadder(ctx context.Context, budget time.Duration) error {
	srv, err := startServer(ctx, l.in)
	if err != nil {
		return err
	}
	defer srv.close()
	set := l.rep.set
	ld, done := newLoad(l.in, srv, true, l.rep)
	defer done()

	// The workload itself: open-loop rounds per model, untraced then
	// with one async span per request.
	rates := l.in.sz.rate
	n := max(int(budget.Seconds()/8*rates["logit"]), 20)
	rowsBefore, batchesBefore := batchTotals(srv)
	p50 := map[string]float64{}
	var overhead []float64
	for _, model := range serveModels {
		ld.openLoop(model, rates[model], n/2)
		untraced := medianMs(ld.openLoop(model, rates[model], n))
		plain := ld.call
		ld.call = func(c int, m string, body []byte) (int, []float64, error) {
			id := l.tr.NextID()
			l.tr.AsyncBegin("serve", "request "+m, id, nil)
			defer l.tr.AsyncEnd("serve", "request "+m, id, nil)
			return plain(c, m, body)
		}
		sp := l.tr.Start("serve", "open loop "+model)
		traced := medianMs(ld.openLoop(model, rates[model], n))
		sp.End()
		ld.call = plain
		p50[model] = untraced
		overhead = append(overhead, traced/untraced-1)
	}
	set("trace.overhead_frac", median(overhead), len(overhead))
	rows, batches := batchTotals(srv)
	rows, batches = rows-rowsBefore, batches-batchesBefore
	set("serve.mean_batch_rows", float64(rows)/float64(batches), int(batches))
	set("serve.rejected_429", float64(ld.rejected), l.rep.attempted)
	set("serve.send_lag_ms", median(ld.lagMs), len(ld.lagMs))

	// Inside one request, outermost first: the handler without a
	// socket, then its two halves called directly.
	const calls = 200
	body := l.in.bodies1[0]
	decode, err := l.probeCalls("serve", "json decode", calls, func(int) error {
		var req struct {
			Rows [][]float64 `json:"rows"`
		}
		return json.Unmarshal(body, &req)
	})
	if err != nil {
		return err
	}
	set("serve.json_decode_us", decode*1e6, calls)
	handler := handlerCaller(srv.srv.Handler())
	for _, model := range serveModels {
		entry, _ := srv.reg.Get(model)
		snap, err := entry.Acquire()
		if err != nil {
			return err
		}
		defer snap.Release()
		s, err := l.probeCalls("serve", "PredictMatrix "+model, calls, func(i int) error {
			q := i % l.in.sz.queryRows
			got, err := snap.Model.PredictMatrix(l.in.queries.RowWindow(q, q+1))
			l.rep.op(err == nil && samePredictions(got, l.in.expect[model][q:q+1]))
			return err
		})
		if err != nil {
			return err
		}
		set("serve.predict_matrix_us."+model, s*1e6, calls)
		if s, err = l.probeCalls("serve", "handler "+model, calls, func(i int) error {
			q := i % l.in.sz.queryRows
			status, got, err := handler(0, model, l.in.bodies1[q])
			l.rep.op(err == nil && status == 200 && samePredictions(got, l.in.expect[model][q:q+1]))
			return err
		}); err != nil {
			return err
		}
		set("serve.handler_us."+model, s*1e6, calls)
		if model == "logit" {
			set("serve.http_overhead_us", p50[model]*1e3-s*1e6, calls)
		}
		if model == "knn" {
			if err := l.knnProbes(ctx, snap.Model.(*m3.FittedKNN).Refs()); err != nil {
				return err
			}
		}
	}
	return nil
}

// medianMs is the median latency of a phase's samples.
func medianMs(samples []sample) float64 {
	ms := make([]float64, len(samples))
	for i, s := range samples {
		ms[i] = s.ms
	}
	return median(ms)
}

// probeCalls is the median seconds of n calls of fn under one span.
func (l *ladder) probeCalls(cat, name string, n int, fn func(i int) error) (float64, error) {
	sp := l.tr.Start(cat, name)
	defer sp.End()
	secs := make([]float64, n)
	for i := range secs {
		start := time.Now()
		if err := fn(i); err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		secs[i] = time.Since(start).Seconds()
	}
	return median(secs), nil
}

// knnProbes calls knn.Search directly with growing query batches: how
// much of a batch's cost is the scan that micro-batching amortizes.
func (l *ladder) knnProbes(ctx context.Context, refs *m3.Matrix) error {
	secs := map[int]float64{}
	for _, q := range []int{1, 8, 64} {
		queries := l.in.queries.RowWindow(0, min(q, l.in.sz.queryRows))
		s, err := l.probeCalls("knn", fmt.Sprintf("knn.Search q%d", q), 20, func(int) error {
			_, err := knn.Search(ctx, refs, queries, knnK, knn.Options{})
			return err
		})
		if err != nil {
			return err
		}
		secs[q] = s
		l.rep.set(fmt.Sprintf("knn.search_ms_q%d", q), s*1e3, 20)
	}
	l.rep.set("knn.batch_amortization", 64*secs[1]/secs[64], 20)
	return nil
}

// batchTotals sums the served models' row and batch counters.
func batchTotals(srv *served) (rows, batches int64) {
	for _, model := range serveModels {
		entry, _ := srv.reg.Get(model)
		s := entry.Metrics().Snapshot()
		rows += s.Rows
		batches += s.Batches
	}
	return rows, batches
}
