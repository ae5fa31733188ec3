// Command benchmark is this repository's benchmark: four workloads
// (train_warm, train_cold, train_dist, serve), the end-to-end metrics
// of BENCHMARK.json measured with tracing off, and a separate traced
// run that times each module's public functions from outside to give
// the per-layer ladder. README.md has the commands and the reasons.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

var workloads = []string{"train_warm", "train_cold", "train_dist", "serve"}

// config is one run's command line.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// dir is where the run keeps its data directory and trace files.
	dir string
	sz  sizes
}

func main() {
	var cfg config
	var trace int
	var aa bool
	var bounds string
	flag.StringVar(&cfg.workload, "workload", "", "one of train_warm, train_cold, train_dist, serve")
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "how long the run measures, set-up excluded")
	flag.IntVar(&trace, "trace", 0, "1: run the traced per-layer ladder instead of the end-to-end metrics")
	flag.BoolVar(&aa, "aa", false, "run every workload twice on this build and compare against the bounds")
	flag.StringVar(&cfg.dir, "dir", ".bench_build", "directory for generated data and trace files")
	flag.StringVar(&bounds, "bounds", "BENCHMARK.json", "BENCHMARK.json, read by -aa for the bounds")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.sz = fullSizes

	if aa {
		os.Exit(runAA(cfg, bounds))
	}
	// A signal cancels the fits, so that the run ends early and still
	// removes its data directory.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rep, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	rep.print(os.Stdout, defs)
	if err := rep.writeResult(os.Stdout, defs); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if rep.failed > 0 {
		os.Exit(1)
	}
}

// run sets up, measures one workload and removes everything it made
// except the trace file.
func run(ctx context.Context, cfg config) (rep *report, err error) {
	if _, known := regimeOf[cfg.workload]; !known {
		return nil, fmt.Errorf("unknown workload %q, want one of %v", cfg.workload, workloads)
	}
	data := filepath.Join(cfg.dir, "data", fmt.Sprintf("%s-%d-%d", cfg.workload, cfg.seed, os.Getpid()))
	if err := os.MkdirAll(data, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(data); err == nil {
			err = rmErr
		}
	}()
	// Shard workers allocate pipeline scratch in os.TempDir(); keep
	// that inside the data directory too.
	if old, ok := os.LookupEnv("TMPDIR"); ok {
		defer os.Setenv("TMPDIR", old)
	} else {
		defer os.Unsetenv("TMPDIR")
	}
	if err := os.Setenv("TMPDIR", data); err != nil {
		return nil, err
	}

	rep = newReport()
	reps := cfg.sz.setupReps
	if cfg.trace {
		reps = 1 // the traced run does not report setup_s
	}
	var in *inputs
	var setups []float64
	for range reps {
		start := time.Now()
		if in, err = setUp(ctx, data, cfg.seed, cfg.sz); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	rep.set("setup_s", calm(setups), len(setups))
	fmt.Printf("workload %s seed %d: %d×%d train table, %d-row reference table, %d queries, reference accuracy %.4f, set-ups %.3v s\n",
		cfg.workload, cfg.seed, cfg.sz.trainRows, 784, cfg.sz.refRows, cfg.sz.queryRows, in.accuracy, setups)

	budget := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		return rep, tracedRun(ctx, in, cfg, budget, rep)
	}
	return rep, measure(ctx, in, cfg.workload, budget, rep)
}

// shares is how a workload divides every round: regime is the part for
// the logreg and k-means fits in the workload's regime, pipeline the
// part for the pipeline fit, and the two served models share the rest.
// A workload gives most of the time to its own metrics. The pipeline
// has a slice of its own so that it follows another pipeline fit, not
// an evicted or sharded one: behind train_cold's fits, which keep the
// disk busy, its scratch write-back spread by 23 to 30 % between runs.
type shares struct{ regime, pipeline float64 }

var sharesOf = map[string]shares{
	"train_warm": {0.45, 0.25},
	"train_cold": {0.45, 0.25},
	"train_dist": {0.45, 0.25},
	"serve":      {0.2, 0.2},
}

// measure is the untraced run of one workload. Every workload reports
// every end-to-end metric; the workload decides the regime of the fits,
// whether requests go over HTTP or straight to the handler, and which
// of the two gets the time. The run is cut into rounds, each of which
// measures every metric for a short while, so that each metric samples
// the whole run: the host's busy stretches last for seconds, and a
// metric measured in one piece of a few seconds would sit inside one
// or outside it.
func measure(ctx context.Context, in *inputs, workload string, budget time.Duration, rep *report) (err error) {
	tr, err := newTrainer(ctx, in, in.train, regimeOf[workload])
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, tr.close()) }()
	srv, err := startServer(ctx, in)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, srv.close()) }()
	l, done := newLoad(in, srv, workload == "serve", rep)
	defer done()

	sh := sharesOf[workload]
	slice := budget / time.Duration(in.sz.rounds)
	part := func(share float64) time.Duration { return time.Duration(share * float64(slice)) }
	serving := part((1 - sh.regime - sh.pipeline) / float64(len(serveModels)))
	// One discarded repetition and round: first faults, pool and
	// connection start-up, heap growth.
	tr.repeat(ctx, fitNames, 0, 1, rep, &trainSamples{})
	for _, model := range serveModels {
		l.round(model, serving)
	}
	l.reset()
	var fits trainSamples
	for range in.sz.rounds {
		tr.repeat(ctx, regimeFits, part(sh.regime), 1, rep, &fits)
		tr.repeat(ctx, pipelineFit, part(sh.pipeline), 1, rep, &fits)
		for _, model := range serveModels {
			l.round(model, serving)
		}
	}
	fits.report(rep)
	l.report()
	return nil
}

// writeResult prints the one-line JSON object the driver reads.
func (r *report) writeResult(w io.Writer, defs []metricDef) error {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0, r.attempted, r.failed, map[string]metric{}}
	for _, d := range defs {
		v := r.value[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		out.Metrics[d.name] = metric{v, d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
