package bench

import (
	"context"

	"fmt"

	"m3/internal/infimnist"
	"m3/internal/mat"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/logreg"
	"m3/internal/obs"
	"m3/internal/optimize"
	"m3/internal/store"
	"m3/internal/vm"
)

// Workload fixes the training configuration shared by M3 and Spark
// runs so comparisons are apples-to-apples.
type Workload struct {
	// NominalBytes is the modelled dataset size (e.g. 190e9).
	NominalBytes int64
	// ActualRows is the scaled-down row count the math really runs
	// on (default 512).
	ActualRows int
	// Features per row (default 784, Infimnist).
	Features int
	// Iterations of the algorithm (the paper: 10).
	Iterations int
	// K is the k-means cluster count (the paper: 5).
	K int
	// Seed drives data generation and k-means init.
	Seed uint64
}

func (w Workload) withDefaults() (Workload, error) {
	if w.NominalBytes <= 0 {
		return w, fmt.Errorf("bench: non-positive nominal size")
	}
	if w.ActualRows <= 0 {
		w.ActualRows = 512
	}
	if w.Features <= 0 {
		w.Features = infimnist.Features
	}
	if w.Iterations <= 0 {
		w.Iterations = 10
	}
	if w.K <= 0 {
		w.K = 5
	}
	return w, nil
}

// materialize renders the scaled-down matrix and binary labels
// (digit 0 vs rest, so logistic regression has a real signal).
func (w Workload) materialize() (x []float64, yBinary []float64) {
	g := infimnist.Generator{Seed: w.Seed}
	var labels []float64
	x, labels = g.Matrix(0, int64(w.ActualRows))
	yBinary = make([]float64, w.ActualRows)
	for i, v := range labels {
		if v == 0 {
			yBinary[i] = 1
		}
	}
	return x, yBinary
}

// InitialCentroids returns deterministic K×D starting centroids for
// k-means (sampled rows), shared by the M3 and Spark runs.
func (w Workload) InitialCentroids() *mat.Dense {
	g := infimnist.Generator{Seed: w.Seed + 1}
	c := mat.NewDense(w.K, w.Features)
	row := make([]float64, infimnist.Features)
	for k := 0; k < w.K; k++ {
		g.Fill(row, int64(k*7+1))
		c.SetRow(k, row[:w.Features])
	}
	return c
}

// Report is the outcome of one simulated run.
type Report struct {
	// Name labels the run ("M3", "Spark x4", ...).
	Name string
	// Seconds is the simulated elapsed time.
	Seconds float64
	// Passes counts full scans over the data.
	Passes int
	// Util is the resource-utilization profile (M3 runs only).
	Util obs.Utilization
	// Model quality numbers for cross-run validation.
	FinalValue float64
}

// pagedMatrix builds the nominally-sized paged store over the actual
// matrix.
func pagedMatrix(machine Machine, w Workload, data []float64) (*mat.Dense, *store.Paged, error) {
	ps, err := store.NewPaged(data, store.PagedConfig{
		NominalBytes: w.NominalBytes,
		VM:           machine.vmConfig(w.NominalBytes),
		ReadOnly:     true,
	})
	if err != nil {
		return nil, nil, err
	}
	x, err := mat.NewDenseStore(ps, w.ActualRows, w.Features)
	if err != nil {
		return nil, nil, err
	}
	// The paper's timed runs are modelled as one scanner: a single
	// stream keeps the simulated timings exactly deterministic, which
	// the figure-regeneration suite (and the runtime-prediction fits)
	// rely on. The multicore experiment opts into parallel faulting
	// explicitly with per-worker streams.
	x.SetWorkersHint(1)
	return x, ps, nil
}

// utilization reads a simulated timeline as the paper's §3.1
// utilization report.
func utilization(tl *vm.Timeline) obs.Utilization {
	return obs.Utilization{
		ElapsedSeconds: tl.Elapsed(),
		CPUSeconds:     tl.CPUSeconds(),
		DiskSeconds:    tl.DiskSeconds(),
	}
}

// finishReport folds CPU accounting into the store's timeline and
// produces the report. CPU seconds = passes × nominal bytes / scan
// throughput: each pass streams the full nominal dataset through the
// inner loop.
func finishReport(name string, machine Machine, w Workload, ps *store.Paged, passes int, finalValue float64) Report {
	tl := ps.Timeline()
	cpu := float64(passes) * float64(w.NominalBytes) / machine.CPUScanBytesPerSec
	tl.AddCPU(cpu)
	return Report{
		Name:       name,
		Seconds:    tl.Elapsed(),
		Passes:     passes,
		Util:       utilization(tl),
		FinalValue: finalValue,
	}
}

// RunLogRegM3 trains logistic regression (L-BFGS, w.Iterations) on a
// nominally-sized paged dataset and reports simulated time.
func RunLogRegM3(machine Machine, w Workload) (Report, error) {
	w, err := w.withDefaults()
	if err != nil {
		return Report{}, err
	}
	data, y := w.materialize()
	x, ps, err := pagedMatrix(machine, w, data)
	if err != nil {
		return Report{}, err
	}
	obj, err := logreg.NewObjective(x, y, 1e-4, true)
	if err != nil {
		return Report{}, err
	}
	res, err := optimize.LBFGS(context.Background(), obj, make([]float64, obj.Dim()), optimize.LBFGSParams{
		MaxIterations: w.Iterations,
		GradTol:       1e-12, // run the full iteration budget, like the paper
	})
	if err != nil {
		return Report{}, err
	}
	return finishReport("M3", machine, w, ps, obj.Scans, res.Value), nil
}

// RunKMeansM3 runs w.Iterations of Lloyd k-means on a nominally-sized
// paged dataset.
func RunKMeansM3(machine Machine, w Workload) (Report, error) {
	w, err := w.withDefaults()
	if err != nil {
		return Report{}, err
	}
	data, _ := w.materialize()
	x, ps, err := pagedMatrix(machine, w, data)
	if err != nil {
		return Report{}, err
	}
	res, err := kmeans.Run(context.Background(), x, kmeans.Options{
		K:                w.K,
		MaxIterations:    w.Iterations,
		InitCentroids:    w.InitialCentroids(),
		RunAllIterations: true, // the paper's fixed 10-iteration protocol
	})
	if err != nil {
		return Report{}, err
	}
	return finishReport("M3", machine, w, ps, res.Scans, res.Inertia), nil
}

// RunAccessPattern compares a sequential scan to random page access
// at the same volume — the paper's §4 locality study. It drives the
// virtual-memory simulator directly at true page (4 KiB) granularity:
// the sequential pass enjoys read-ahead batching, the random pass
// pays a seek plus per-request overhead for every page. Both touch
// exactly the same number of pages per pass.
//
// The study runs at a reduced absolute scale (2 GB dataset, 512 MB
// RAM: the same 4x out-of-core ratio as 128 GB against 32 GB) so the
// page-level simulation stays tractable; the penalty ratio depends on
// the page size and disk latencies, not on the absolute scale.
func RunAccessPattern(machine Machine, w Workload, passes int) (sequential, random Report, err error) {
	w, err = w.withDefaults()
	if err != nil {
		return Report{}, Report{}, err
	}
	const (
		studyBytes = int64(2 << 30)
		studyRAM   = int64(512 << 20)
		pageSize   = int64(4096)
	)
	pages := studyBytes / pageSize

	run := func(name string, pageAt func(pass, i int64) int64) (Report, error) {
		mem, err := vm.NewMemory(studyBytes, vm.Config{
			PageSize:   pageSize,
			CacheBytes: studyRAM,
			Disk:       machine.Disk,
		})
		if err != nil {
			return Report{}, err
		}
		var tl vm.Timeline
		for p := 0; p < passes; p++ {
			for i := int64(0); i < pages; i++ {
				tl.AddDisk(mem.Touch(pageAt(int64(p), i)*pageSize, 1))
			}
		}
		tl.AddCPU(float64(passes) * float64(studyBytes) / machine.CPUScanBytesPerSec)
		return Report{
			Name:    name,
			Seconds: tl.Elapsed(),
			Passes:  passes,
			Util:    utilization(&tl),
		}, nil
	}

	sequential, err = run("sequential", func(_, i int64) int64 { return i })
	if err != nil {
		return Report{}, Report{}, err
	}
	// Deterministic pseudo-random permutation by multiplicative
	// stride (odd stride is coprime with the power-of-two page
	// count, so each pass visits every page exactly once).
	const stride = 2654435761 // Knuth's multiplicative-hash constant, odd
	random, err = run("random", func(p, i int64) int64 {
		return ((i + p) * stride) & (pages - 1)
	})
	if err != nil {
		return Report{}, Report{}, err
	}
	return sequential, random, nil
}

// RAMAblation reruns the logistic-regression workload across RAM
// budgets at a fixed dataset size — the Figure 1a knee viewed from
// the other axis. Runtime collapses once the budget exceeds the
// dataset: the cheapest "scale-up" is often just more DIMMs.
func RAMAblation(w Workload, ramBytes []int64) ([]Report, error) {
	out := make([]Report, 0, len(ramBytes))
	for _, ram := range ramBytes {
		machine := PaperPC()
		machine.RAMBytes = ram
		rep, err := RunLogRegM3(machine, w)
		if err != nil {
			return nil, fmt.Errorf("bench: ram ablation at %d: %w", ram, err)
		}
		rep.Name = fmt.Sprintf("ram=%dGB", ram/1e9)
		out = append(out, rep)
	}
	return out, nil
}

// ReadAheadAblation measures what kernel-style sequential read-ahead
// is worth: the same out-of-core sequential scans (2 GiB data,
// 512 MiB cache, 4 KiB pages) with the adaptive read-ahead window
// enabled versus disabled (window pinned to one page). Read-ahead
// amortizes per-request overhead across up to 512 pages, which is
// most of why M3's sequential scans run at device bandwidth.
func ReadAheadAblation(machine Machine, passes int) (with, without Report, err error) {
	const (
		studyBytes = int64(2 << 30)
		studyRAM   = int64(512 << 20)
		pageSize   = int64(4096)
	)
	run := func(name string, maxRA int) (Report, error) {
		mem, err := vm.NewMemory(studyBytes, vm.Config{
			PageSize:          pageSize,
			CacheBytes:        studyRAM,
			Disk:              machine.Disk,
			MinReadAheadPages: 1,
			MaxReadAheadPages: maxRA,
		})
		if err != nil {
			return Report{}, err
		}
		var tl vm.Timeline
		for p := 0; p < passes; p++ {
			tl.AddDisk(mem.Touch(0, studyBytes))
		}
		tl.AddCPU(float64(passes) * float64(studyBytes) / machine.CPUScanBytesPerSec)
		return Report{
			Name:    name,
			Seconds: tl.Elapsed(),
			Passes:  passes,
			Util:    utilization(&tl),
		}, nil
	}
	with, err = run("readahead", 512)
	if err != nil {
		return Report{}, Report{}, err
	}
	without, err = run("no-readahead", 1)
	if err != nil {
		return Report{}, Report{}, err
	}
	return with, without, nil
}

// DiskAblation reruns logistic regression across disk models (HDD,
// SSD, RAID0 stripes) to quantify the paper's "faster disks would
// lift M3" claim.
func DiskAblation(w Workload) (map[string]Report, error) {
	disks := map[string]vm.DiskModel{
		"hdd":     vm.HDD(),
		"ssd":     vm.SSD(),
		"raid0x2": vm.RAID0(vm.SSD(), 2),
		"raid0x4": vm.RAID0(vm.SSD(), 4),
	}
	out := make(map[string]Report, len(disks))
	for name, d := range disks {
		rep, err := RunLogRegM3(PaperPC().WithDisk(d), w)
		if err != nil {
			return nil, fmt.Errorf("bench: disk ablation %s: %w", name, err)
		}
		rep.Name = name
		out[name] = rep
	}
	return out, nil
}
