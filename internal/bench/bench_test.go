package bench

import (
	"strings"
	"testing"

	"m3/internal/vm"
)

// smallWorkload keeps simulated runs fast: 128 real rows.
func smallWorkload(nominal int64) Workload {
	return Workload{NominalBytes: nominal, ActualRows: 128, Seed: 3}
}

func TestRunLogRegM3OutOfCoreIsIOBound(t *testing.T) {
	rep, err := RunLogRegM3(PaperPC(), smallWorkload(190e9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes < 10 {
		t.Errorf("passes = %d, want >= 10 (one per iteration)", rep.Passes)
	}
	if !rep.Util.IOBound() {
		t.Errorf("out-of-core run not I/O bound: %s", rep.Util)
	}
	// §3.1: CPU around 13%.
	if cpu := rep.Util.CPUPercent(); cpu < 5 || cpu > 30 {
		t.Errorf("CPU utilization = %.0f%%, paper observed ≈13%%", cpu)
	}
	if disk := rep.Util.DiskPercent(); disk < 95 {
		t.Errorf("disk utilization = %.0f%%, paper observed ≈100%%", disk)
	}
}

func TestRunLogRegM3InRAMIsCPUBound(t *testing.T) {
	rep, err := RunLogRegM3(PaperPC(), smallWorkload(8e9))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Util.IOBound() {
		t.Errorf("in-RAM run classified I/O bound: %s", rep.Util)
	}
	if rep.Util.CPUPercent() < 90 {
		t.Errorf("in-RAM CPU utilization = %.0f%%, want ~100%%", rep.Util.CPUPercent())
	}
}

func TestRunKMeansM3(t *testing.T) {
	w := smallWorkload(190e9)
	rep, err := RunKMeansM3(PaperPC(), w)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Passes != w.Iterations && rep.Passes != 10 {
		t.Errorf("passes = %d, want 10 (one scan per Lloyd iteration)", rep.Passes)
	}
	if !rep.Util.IOBound() {
		t.Errorf("out-of-core k-means not I/O bound: %s", rep.Util)
	}
}

func TestFromTimeline(t *testing.T) {
	var tl vm.Timeline
	tl.AddCPU(13)
	tl.AddDisk(100)
	u := utilization(&tl)
	if u.ElapsedSeconds != 100 || u.CPUSeconds != 13 || u.DiskSeconds != 100 {
		t.Errorf("utilization = %+v", u)
	}
	if !strings.Contains(u.String(), "disk 100%") {
		t.Errorf("String = %q", u.String())
	}
}

func TestWorkloadValidation(t *testing.T) {
	if _, err := RunLogRegM3(PaperPC(), Workload{}); err == nil {
		t.Error("accepted zero workload")
	}
}

func TestFig1aShape(t *testing.T) {
	res, err := Fig1a(Fig1aConfig{Workload: Workload{ActualRows: 128, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 10 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Runtime grows monotonically with size.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].Seconds <= res.Points[i-1].Seconds {
			t.Errorf("runtime not increasing at %dG: %v -> %v",
				res.Points[i].SizeBytes/1e9, res.Points[i-1].Seconds, res.Points[i].Seconds)
		}
	}
	// Both regimes linear (paper finding 1).
	if res.Model.InRAM.R2 < 0.98 {
		t.Errorf("in-RAM R² = %v", res.Model.InRAM.R2)
	}
	if res.Model.OutOfCore.R2 < 0.98 {
		t.Errorf("out-of-core R² = %v", res.Model.OutOfCore.R2)
	}
	// Out-of-core slope is steeper, substantially.
	if r := res.Model.SlopeRatio(); r < 2 {
		t.Errorf("slope ratio = %v, want > 2 (paper shows a marked kink)", r)
	}
}

func TestFig1bShape(t *testing.T) {
	rows, err := Fig1b(PaperPC(), smallWorkload(190e9))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d want 6", len(rows))
	}
	get := func(algo, sys string) Fig1bRow {
		for _, r := range rows {
			if r.Algorithm == algo && r.System == sys {
				return r
			}
		}
		t.Fatalf("missing row %s/%s", algo, sys)
		return Fig1bRow{}
	}

	// Paper finding 2, logistic regression: M3 beats 8x Spark by
	// ~30%, and 4x Spark is ~4.2x slower than M3.
	lr4 := get("logreg", "Spark x4")
	lr8 := get("logreg", "Spark x8")
	if lr8.RatioToM3 < 1.1 || lr8.RatioToM3 > 2.0 {
		t.Errorf("logreg Spark x8 / M3 = %.2f, paper ≈ 1.47", lr8.RatioToM3)
	}
	if lr4.RatioToM3 < 3 || lr4.RatioToM3 > 6 {
		t.Errorf("logreg Spark x4 / M3 = %.2f, paper ≈ 4.2", lr4.RatioToM3)
	}

	// k-means: 8x comparable (paper 1.37x), 4x more than 2x slower.
	km4 := get("kmeans", "Spark x4")
	km8 := get("kmeans", "Spark x8")
	if km8.RatioToM3 < 1.0 || km8.RatioToM3 > 2.0 {
		t.Errorf("kmeans Spark x8 / M3 = %.2f, paper ≈ 1.37", km8.RatioToM3)
	}
	if km4.RatioToM3 < 2 {
		t.Errorf("kmeans Spark x4 / M3 = %.2f, paper ≈ 3.0 (>2 required)", km4.RatioToM3)
	}

	// Ordering: M3 < Spark x8 < Spark x4 for both algorithms.
	for _, algo := range []string{"logreg", "kmeans"} {
		m3 := get(algo, "M3")
		s8 := get(algo, "Spark x8")
		s4 := get(algo, "Spark x4")
		if !(m3.Seconds < s8.Seconds && s8.Seconds < s4.Seconds) {
			t.Errorf("%s ordering violated: M3 %.0f, x8 %.0f, x4 %.0f",
				algo, m3.Seconds, s8.Seconds, s4.Seconds)
		}
	}
}

func TestIOBoundExperiment(t *testing.T) {
	util, err := IOBound(PaperPC(), smallWorkload(190e9))
	if err != nil {
		t.Fatal(err)
	}
	if !util.IOBound() {
		t.Errorf("not I/O bound: %s", util)
	}
}

func TestAccessPatternSequentialWins(t *testing.T) {
	seq, rnd, err := RunAccessPattern(PaperPC(), smallWorkload(190e9), 3)
	if err != nil {
		t.Fatal(err)
	}
	if seq.Seconds >= rnd.Seconds {
		t.Errorf("sequential (%.0fs) not faster than random (%.0fs)", seq.Seconds, rnd.Seconds)
	}
	// Random 4 KiB access pays a seek per page against read-ahead
	// batching; the penalty should be substantial.
	if ratio := rnd.Seconds / seq.Seconds; ratio < 5 {
		t.Errorf("random/sequential penalty = %.1fx, want >= 5x", ratio)
	}
}

func TestPredictExtrapolates(t *testing.T) {
	w := Workload{ActualRows: 128, Seed: 3}
	train := []int64{8e9, 16e9, 24e9, 40e9, 60e9, 80e9}
	test := []int64{120e9, 190e9}
	points, model, err := Predict(PaperPC(), w, train, test)
	if err != nil {
		t.Fatal(err)
	}
	if model.OutOfCore.N != 3 {
		t.Errorf("out-of-core training points = %d", model.OutOfCore.N)
	}
	for _, p := range points {
		errFrac := (p.Predicted - p.Actual) / p.Actual
		if errFrac < -0.15 || errFrac > 0.15 {
			t.Errorf("prediction at %dG off by %.0f%% (pred %.0f, actual %.0f)",
				p.SizeBytes/1e9, 100*errFrac, p.Predicted, p.Actual)
		}
	}
}

func TestLocalityStudy(t *testing.T) {
	reports, err := Locality(Workload{NominalBytes: 1, ActualRows: 96, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("reports = %d", len(reports))
	}
	for _, r := range reports {
		// Both algorithms are scan workloads: near-perfectly
		// sequential, with the LRU cliff at the full working set.
		if r.SequentialFraction < 0.95 {
			t.Errorf("%s sequential fraction = %v", r.Algorithm, r.SequentialFraction)
		}
		if r.KneeFraction != 1 {
			t.Errorf("%s knee = %vx working set, want exactly 1 (cyclic scan)", r.Algorithm, r.KneeFraction)
		}
		if r.WorkingSetPages <= 0 || r.References <= r.WorkingSetPages {
			t.Errorf("%s suspicious counts: %d refs, %d pages", r.Algorithm, r.References, r.WorkingSetPages)
		}
		// Monotone curve with a drop at the knee.
		last := r.Curve[len(r.Curve)-1].MissRatio
		first := r.Curve[0].MissRatio
		if !(last < first) {
			t.Errorf("%s curve flat: %v .. %v", r.Algorithm, first, last)
		}
	}
	var sb strings.Builder
	if err := RenderLocality(&sb, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "working set") {
		t.Error("locality render missing content")
	}
}

func TestEnergyComparison(t *testing.T) {
	rows, err := Energy(PaperPC(), smallWorkload(190e9))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].System != "M3" || rows[0].RatioToM3 != 1 {
		t.Errorf("first row = %+v", rows[0])
	}
	for _, r := range rows[1:] {
		if r.RatioToM3 < 5 {
			t.Errorf("%s energy only %.1fx of M3; clusters should burn far more", r.System, r.RatioToM3)
		}
		if r.Joules <= 0 || r.KWh <= 0 {
			t.Errorf("%s non-positive energy", r.System)
		}
	}
	var sb strings.Builder
	if err := RenderEnergy(&sb, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "kWh") {
		t.Error("energy table missing header")
	}
}

func TestDiskAblationOrdering(t *testing.T) {
	reports, err := DiskAblation(smallWorkload(190e9))
	if err != nil {
		t.Fatal(err)
	}
	if !(reports["hdd"].Seconds > reports["ssd"].Seconds) {
		t.Errorf("hdd (%.0f) not slower than ssd (%.0f)", reports["hdd"].Seconds, reports["ssd"].Seconds)
	}
	if !(reports["ssd"].Seconds > reports["raid0x2"].Seconds) {
		t.Errorf("ssd (%.0f) not slower than raid0x2 (%.0f)", reports["ssd"].Seconds, reports["raid0x2"].Seconds)
	}
	if !(reports["raid0x2"].Seconds >= reports["raid0x4"].Seconds) {
		t.Errorf("raid0x2 (%.0f) not slower than raid0x4 (%.0f)", reports["raid0x2"].Seconds, reports["raid0x4"].Seconds)
	}
}

func TestRAMAblationCliff(t *testing.T) {
	// Fixed 64 GB dataset; RAM sweep crossing it.
	w := smallWorkload(64e9)
	reports, err := RAMAblation(w, []int64{16e9, 32e9, 48e9, 80e9, 128e9})
	if err != nil {
		t.Fatal(err)
	}
	// Runtime is non-increasing in RAM.
	for i := 1; i < len(reports); i++ {
		if reports[i].Seconds > reports[i-1].Seconds*1.001 {
			t.Errorf("more RAM slower: %s %.0fs -> %s %.0fs",
				reports[i-1].Name, reports[i-1].Seconds, reports[i].Name, reports[i].Seconds)
		}
	}
	// The cliff: crossing the dataset size cuts runtime by > 3x.
	below := reports[2].Seconds // 48 GB < 64 GB dataset
	above := reports[3].Seconds // 80 GB > dataset
	if below/above < 3 {
		t.Errorf("RAM cliff ratio = %.1f, want > 3 (out-of-core %.0fs vs in-RAM %.0fs)",
			below/above, below, above)
	}
}

func TestReadAheadAblation(t *testing.T) {
	with, without, err := ReadAheadAblation(PaperPC(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := without.Seconds / with.Seconds; ratio < 2 {
		t.Errorf("disabling read-ahead only %.1fx slower; batching should dominate at 4 KiB pages", ratio)
	}
}

func TestRenderers(t *testing.T) {
	res, err := Fig1a(Fig1aConfig{
		SizesBytes: []int64{8e9, 16e9, 40e9, 80e9},
		Workload:   Workload{ActualRows: 64, Seed: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := RenderFig1a(&sb, res, 32e9); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"8G", "80G", "out-of-core", "fit:"} {
		if !strings.Contains(out, want) {
			t.Errorf("fig1a output missing %q:\n%s", want, out)
		}
	}

	rows, err := Fig1b(PaperPC(), Workload{NominalBytes: 190e9, ActualRows: 64, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb.Reset()
	if err := RenderFig1b(&sb, rows); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"M3", "Spark x4", "Spark x8", "kmeans", "logreg"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("fig1b output missing %q", want)
		}
	}

	reports := map[string]Report{"a": {Name: "a", Seconds: 1}, "b": {Name: "b", Seconds: 2}}
	sb.Reset()
	if err := RenderReports(&sb, reports); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "config") {
		t.Error("reports header missing")
	}

	sb.Reset()
	if err := RenderPredict(&sb, []PredictPoint{{SizeBytes: 100e9, Predicted: 90, Actual: 100}}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "-10.0%") {
		t.Errorf("predict output: %s", sb.String())
	}
}

// TestMultiCoreRegimes: with per-worker streams and per-worker CPU
// tracks, the in-RAM regime scales with the core count while the
// out-of-core regime stays pinned to the disk — the paper's 13%-CPU
// observation made sweepable.
func TestMultiCoreRegimes(t *testing.T) {
	points, err := MultiCore(MultiCoreConfig{
		Workload:     Workload{ActualRows: 64, Seed: 3, NominalBytes: 1},
		WorkerCounts: []int{1, 4},
		SizesBytes:   []int64{8e9, 190e9},
		Passes:       4,
		BlockBytes:   16 << 10, // 2 rows/block: fine-grained static schedule
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d want 4", len(points))
	}
	get := func(size int64, workers int) MultiCorePoint {
		for _, p := range points {
			if p.SizeBytes == size && p.Workers == workers {
				return p
			}
		}
		t.Fatalf("missing point %d/%d", size, workers)
		return MultiCorePoint{}
	}

	// In-RAM steady state: no faults after warm-up, so elapsed is the
	// slowest CPU track and four cores cut it ~4x deterministically.
	inRAM := get(8e9, 4)
	if inRAM.Speedup < 2.5 {
		t.Errorf("in-RAM speedup at 4 workers = %.2fx, want > 2.5x", inRAM.Speedup)
	}
	if inRAM.DiskUtil != 0 {
		t.Errorf("in-RAM steady-state disk util = %v, want 0 (no re-faults)", inRAM.DiskUtil)
	}

	// Out-of-core: every pass re-faults the dataset; the disk is the
	// bottleneck, so extra cores buy ~nothing and the CPUs idle.
	ooc1, ooc4 := get(190e9, 1), get(190e9, 4)
	if ooc4.Speedup < 0.5 || ooc4.Speedup > 1.5 {
		t.Errorf("out-of-core speedup at 4 workers = %.2fx, want ~1x (disk bound)", ooc4.Speedup)
	}
	if ooc4.DiskUtil < 0.9 {
		t.Errorf("out-of-core disk util = %.2f, want > 0.9", ooc4.DiskUtil)
	}
	if ooc4.CPUUtil > 0.1 {
		t.Errorf("out-of-core CPU util at 4 workers = %.2f, want < 0.1 (the paper's idle-CPU regime)", ooc4.CPUUtil)
	}
	if ooc1.CPUUtil < 0.05 || ooc1.CPUUtil > 0.3 {
		t.Errorf("out-of-core CPU util at 1 worker = %.2f, paper observed ≈0.13", ooc1.CPUUtil)
	}

	var sb strings.Builder
	if err := RenderMultiCore(&sb, points, PaperPC().RAMBytes); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"workers", "speedup", "out-of-core", "in-RAM"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("multicore render missing %q:\n%s", want, sb.String())
		}
	}
}

func TestSparkRunsProduceSameModelQuality(t *testing.T) {
	// M3 and Spark train on the same data with the same algorithm;
	// their final objective values must agree closely (they may take
	// slightly different line-search paths is NOT possible here:
	// identical math, identical optimizer — values must match).
	w := smallWorkload(190e9)
	m3, err := RunLogRegM3(PaperPC(), w)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := RunLogRegSpark(8, w)
	if err != nil {
		t.Fatal(err)
	}
	if m3.FinalValue != sp.FinalValue {
		t.Errorf("final objective differs: M3 %v vs Spark %v", m3.FinalValue, sp.FinalValue)
	}

	km3, err := RunKMeansM3(PaperPC(), w)
	if err != nil {
		t.Fatal(err)
	}
	ks, err := RunKMeansSpark(8, w)
	if err != nil {
		t.Fatal(err)
	}
	if relDiff(km3.FinalValue, ks.FinalValue) > 1e-9 {
		t.Errorf("final inertia differs: M3 %v vs Spark %v", km3.FinalValue, ks.FinalValue)
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m == 0 {
		return 0
	}
	return d / m
}
