// Command m3bench regenerates the paper's evaluation figures on the
// simulated substrates (internal/vm, internal/cluster):
//
//	m3bench -exp fig1a     # Figure 1a: runtime vs dataset size
//	m3bench -exp fig1b     # Figure 1b: M3 vs 4x/8x Spark, logreg+kmeans
//	m3bench -exp iobound   # §3.1 utilization finding (disk 100%, CPU ~13%)
//	m3bench -exp access    # §4 sequential vs random access study
//	m3bench -exp predict   # §4 runtime prediction at unseen sizes
//	m3bench -exp disks     # ablation: HDD vs SSD vs RAID 0
//	m3bench -exp energy    # §4 energy usage: desktop vs clusters
//	m3bench -exp locality  # §4 recorded traces + miss-ratio curves
//	m3bench -exp multicore # parallel faulting, workers × size
//	m3bench -exp all       # everything
//
// -experiment is accepted as an alias of -exp.
//
// With -json out.json, every experiment additionally appends
// machine-readable records (algorithm, mode, workers, simulated
// seconds, passes).
//
// Every experiment is a simulation: simulated seconds model the
// paper's hardware (32 GB RAM desktop with a PCIe SSD; EMR m3.2xlarge
// workers), and the shapes — who wins, by what factor, where the RAM
// knee falls — are the reproduction target, not the absolute values.
// Real-hardware numbers for the engine, the serving daemon and the
// worker cluster come from the repository benchmark (benchmark/run.sh).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"time"

	"m3/internal/bench"
	"m3/internal/obs"
)

// Record is one machine-readable benchmark result.
type Record struct {
	Experiment string  `json:"experiment"`
	Algorithm  string  `json:"algorithm"`
	Mode       string  `json:"mode"`
	Workers    int     `json:"workers"`
	SizeBytes  int64   `json:"size_bytes,omitempty"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	Passes     int     `json:"passes,omitempty"`
}

// recorder accumulates records for -json output.
type recorder struct {
	records []Record
}

func (r *recorder) add(recs ...Record) {
	if r != nil {
		r.records = append(r.records, recs...)
	}
}

func (r *recorder) write(path string) error {
	out := struct {
		GeneratedAt string   `json:"generated_at"`
		Records     []Record `json:"records"`
	}{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Records:     r.records,
	}
	b, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() { os.Exit(benchMain()) }

// benchMain is main behind an exit code so the -trace / -profile
// defers flush even when an experiment fails partway.
func benchMain() int {
	exp := flag.String("exp", "all", "experiment: fig1a, fig1b, iobound, access, predict, disks, energy, locality, multicore, all")
	flag.StringVar(exp, "experiment", *exp, "alias of -exp")
	rows := flag.Int("rows", 512, "actual (scaled-down) row count the math runs on")
	seed := flag.Uint64("seed", 3, "workload seed")
	size := flag.Float64("size", 190e9, "nominal dataset bytes for single-size experiments")
	passes := flag.Int("passes", 10, "steady-state passes per multicore point")
	jsonOut := flag.String("json", "", "write machine-readable results to this file")
	traceOut := flag.String("trace", "", "write a Chrome trace-event JSON of the run to this path")
	profileOut := flag.String("profile", "", "write a CPU profile of the run to this path")
	flag.Parse()

	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			return fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fail(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "m3bench: profile: %v\n", err)
			} else {
				fmt.Printf("cpu profile written to %s\n", *profileOut)
			}
		}()
	}
	if *traceOut != "" {
		obs.StartTrace()
		defer func() {
			tr := obs.StopTrace()
			if err := writeTrace(tr, *traceOut); err != nil {
				fmt.Fprintf(os.Stderr, "m3bench: trace: %v\n", err)
			} else {
				fmt.Printf("trace written to %s (%d events)\n", *traceOut, len(tr.Events()))
			}
		}()
	}

	w := bench.Workload{NominalBytes: int64(*size), ActualRows: *rows, Seed: *seed}
	machine := bench.PaperPC()
	var rec *recorder
	if *jsonOut != "" {
		rec = &recorder{}
	}

	runners := map[string]func() error{
		"fig1a":     func() error { return runFig1a(machine, w, rec) },
		"fig1b":     func() error { return runFig1b(machine, w, rec) },
		"iobound":   func() error { return runIOBound(machine, w, rec) },
		"access":    func() error { return runAccess(machine, w, rec) },
		"predict":   func() error { return runPredict(machine, w, rec) },
		"disks":     func() error { return runDisks(w, rec) },
		"energy":    func() error { return runEnergy(machine, w, rec) },
		"locality":  func() error { return runLocality(w, rec) },
		"multicore": func() error { return runMultiCore(machine, w, *passes, rec) },
	}
	order := []string{"fig1a", "fig1b", "iobound", "access", "predict", "disks", "energy", "locality", "multicore"}

	if *exp == "all" {
		for _, name := range order {
			if err := runners[name](); err != nil {
				// Flush what completed so earlier experiments'
				// records survive a late failure.
				finish(rec, *jsonOut)
				return fail(err)
			}
		}
		finish(rec, *jsonOut)
		return 0
	}
	run, ok := runners[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "m3bench: unknown experiment %q\n", *exp)
		flag.Usage()
		return 2
	}
	if err := run(); err != nil {
		finish(rec, *jsonOut)
		return fail(err)
	}
	finish(rec, *jsonOut)
	return 0
}

func finish(rec *recorder, path string) {
	if rec == nil {
		return
	}
	if err := rec.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "m3bench: %v\n", err)
		return
	}
	fmt.Printf("\nwrote %d records to %s\n", len(rec.records), path)
}

func fail(err error) int {
	fmt.Fprintf(os.Stderr, "m3bench: %v\n", err)
	return 1
}

// writeTrace dumps a stopped trace as Chrome trace-event JSON.
func writeTrace(tr *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := tr.WriteJSON(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

func runFig1a(machine bench.Machine, w bench.Workload, rec *recorder) error {
	header("Figure 1a — M3 runtime vs dataset size (logreg, 10 iters L-BFGS, RAM 32 GB)")
	res, err := bench.Fig1a(bench.Fig1aConfig{Machine: machine, Workload: w})
	if err != nil {
		return err
	}
	for _, p := range res.Points {
		rec.add(Record{
			Experiment: "fig1a", Algorithm: "logreg", Mode: "simulated",
			Workers: 1, SizeBytes: p.SizeBytes, SimSeconds: p.Seconds, Passes: p.Passes,
		})
	}
	return bench.RenderFig1a(os.Stdout, res, machine.RAMBytes)
}

func runFig1b(machine bench.Machine, w bench.Workload, rec *recorder) error {
	header(fmt.Sprintf("Figure 1b — M3 (1 PC) vs Spark clusters at %.0f GB", float64(w.NominalBytes)/1e9))
	rows, err := bench.Fig1b(machine, w)
	if err != nil {
		return err
	}
	for _, r := range rows {
		rec.add(Record{
			Experiment: "fig1b", Algorithm: r.Algorithm, Mode: r.System,
			Workers: 1, SizeBytes: w.NominalBytes, SimSeconds: r.Seconds,
		})
	}
	return bench.RenderFig1b(os.Stdout, rows)
}

func runIOBound(machine bench.Machine, w bench.Workload, rec *recorder) error {
	header("§3.1 — resource utilization of out-of-core M3")
	util, err := bench.IOBound(machine, w)
	if err != nil {
		return err
	}
	rec.add(Record{
		Experiment: "iobound", Algorithm: "logreg", Mode: "simulated",
		Workers: 1, SizeBytes: w.NominalBytes, SimSeconds: util.ElapsedSeconds,
	})
	fmt.Println(util)
	fmt.Printf("I/O bound: %v (paper: disk 100%% utilized, CPU ≈13%%)\n", util.IOBound())
	return nil
}

func runAccess(machine bench.Machine, w bench.Workload, rec *recorder) error {
	header("§4 — access-pattern study (same volume, different order)")
	seq, rnd, err := bench.RunAccessPattern(machine, w, 3)
	if err != nil {
		return err
	}
	rec.add(
		Record{Experiment: "access", Algorithm: "scan", Mode: "sequential", Workers: 1, SimSeconds: seq.Seconds},
		Record{Experiment: "access", Algorithm: "scan", Mode: "random", Workers: 1, SimSeconds: rnd.Seconds},
	)
	fmt.Printf("sequential scan: %8.0f s  (%s)\n", seq.Seconds, seq.Util)
	fmt.Printf("random access:   %8.0f s  (%s)\n", rnd.Seconds, rnd.Util)
	fmt.Printf("penalty: %.1fx — locality determines out-of-core performance\n", rnd.Seconds/seq.Seconds)
	return nil
}

func runPredict(machine bench.Machine, w bench.Workload, rec *recorder) error {
	header("§4 — runtime prediction from small-scale measurements")
	train := []int64{8e9, 16e9, 24e9, 40e9, 60e9, 80e9}
	test := []int64{120e9, 160e9, 190e9, 250e9}
	points, model, err := bench.Predict(machine, w, train, test)
	if err != nil {
		return err
	}
	for _, p := range points {
		rec.add(Record{
			Experiment: "predict", Algorithm: "logreg", Mode: "simulated",
			Workers: 1, SizeBytes: p.SizeBytes, SimSeconds: p.Actual,
		})
	}
	fmt.Printf("model: %s\n\n", model)
	return bench.RenderPredict(os.Stdout, points)
}

func runEnergy(machine bench.Machine, w bench.Workload, rec *recorder) error {
	header("§4 — energy usage: M3 desktop vs Spark clusters (logreg job)")
	rows, err := bench.Energy(machine, w)
	if err != nil {
		return err
	}
	for _, r := range rows {
		rec.add(Record{
			Experiment: "energy", Algorithm: "logreg", Mode: r.System,
			Workers: 1, SizeBytes: w.NominalBytes, SimSeconds: r.Seconds,
		})
	}
	return bench.RenderEnergy(os.Stdout, rows)
}

func runLocality(w bench.Workload, rec *recorder) error {
	header("§4 — recorded access traces and miss-ratio curves (Mattson analysis)")
	reports, err := bench.Locality(w)
	if err != nil {
		return err
	}
	for _, r := range reports {
		rec.add(Record{
			Experiment: "locality", Algorithm: r.Algorithm, Mode: "traced",
			Workers: 1, Passes: r.References,
		})
	}
	return bench.RenderLocality(os.Stdout, reports)
}

func runDisks(w bench.Workload, rec *recorder) error {
	header("Ablation — storage device (paper: \"faster disks, or RAID 0\")")
	reports, err := bench.DiskAblation(w)
	if err != nil {
		return err
	}
	disks := make([]string, 0, len(reports))
	for disk := range reports {
		disks = append(disks, disk)
	}
	sort.Strings(disks)
	for _, disk := range disks {
		rec.add(Record{
			Experiment: "disks", Algorithm: "logreg", Mode: disk,
			Workers: 1, SimSeconds: reports[disk].Seconds,
		})
	}
	return bench.RenderReports(os.Stdout, reports)
}

// runMultiCore sweeps parallel faulting on the simulated paged store:
// workers × nominal size, per-worker read-ahead streams, elapsed =
// max(slowest worker CPU, disk busy). The out-of-core rows show the
// paper's regime — disk pinned at 100%, speedup flat — while the
// in-RAM rows scale with the core count.
func runMultiCore(machine bench.Machine, w bench.Workload, passes int, rec *recorder) error {
	header("Multi-core — parallel faulting on the simulated paged store (per-worker streams)")
	points, err := bench.MultiCore(bench.MultiCoreConfig{
		Machine:  machine,
		Workload: w,
		Passes:   passes,
	})
	if err != nil {
		return err
	}
	for _, p := range points {
		rec.add(Record{
			Experiment: "multicore", Algorithm: "scan", Mode: "simulated",
			Workers: p.Workers, SizeBytes: p.SizeBytes, SimSeconds: p.Seconds,
			Passes: passes,
		})
	}
	return bench.RenderMultiCore(os.Stdout, points, machine.RAMBytes)
}
