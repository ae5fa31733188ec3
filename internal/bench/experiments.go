package bench

import (
	"fmt"

	"m3/internal/obs"
	"m3/internal/perfmodel"
)

// Fig1aConfig parameterizes the scaling sweep of Figure 1a.
type Fig1aConfig struct {
	// Machine is the M3 platform (default PaperPC).
	Machine Machine
	// SizesBytes are the dataset sizes; default spans 8–190 GB
	// around the paper's 10 GB–190 GB axis with extra in-RAM points
	// so both regimes can be fitted.
	SizesBytes []int64
	// Workload template; NominalBytes is overridden per point.
	Workload Workload
}

func (c Fig1aConfig) withDefaults() Fig1aConfig {
	if c.Machine == (Machine{}) {
		c.Machine = PaperPC()
	}
	// Note the in-RAM points stay strictly below the 32 GB budget: a
	// dataset exactly the size of RAM already thrashes (the cache
	// cannot hold the last page), so 32 GB behaves out-of-core —
	// the paper's dotted line starts right at the RAM mark.
	if len(c.SizesBytes) == 0 {
		c.SizesBytes = []int64{8e9, 16e9, 24e9, 28e9, 40e9, 70e9, 100e9, 130e9, 160e9, 190e9}
	}
	if c.Workload.NominalBytes == 0 {
		c.Workload.NominalBytes = 1 // placeholder; overridden per point
	}
	return c
}

// Fig1aPoint is one sweep measurement.
type Fig1aPoint struct {
	SizeBytes int64
	Seconds   float64
	Util      obs.Utilization
	Passes    int
}

// Fig1aResult bundles the sweep with its fitted two-regime model.
type Fig1aResult struct {
	Points []Fig1aPoint
	Model  perfmodel.Model
}

// Fig1a regenerates Figure 1a: logistic regression (10 iterations of
// L-BFGS) across dataset sizes on one machine, plus the
// piecewise-linear fit demonstrating the paper's two-slope linearity.
func Fig1a(cfg Fig1aConfig) (Fig1aResult, error) {
	c := cfg.withDefaults()
	var out Fig1aResult
	pts := make([]perfmodel.Point, 0, len(c.SizesBytes))
	for _, size := range c.SizesBytes {
		w := c.Workload
		w.NominalBytes = size
		rep, err := RunLogRegM3(c.Machine, w)
		if err != nil {
			return Fig1aResult{}, fmt.Errorf("bench: fig1a at %d bytes: %w", size, err)
		}
		out.Points = append(out.Points, Fig1aPoint{
			SizeBytes: size, Seconds: rep.Seconds, Util: rep.Util, Passes: rep.Passes,
		})
		pts = append(pts, perfmodel.Point{SizeBytes: float64(size), Seconds: rep.Seconds})
	}
	model, err := perfmodel.Fit(pts, float64(c.Machine.RAMBytes))
	if err != nil {
		return Fig1aResult{}, err
	}
	out.Model = model
	return out, nil
}

// Fig1bRow is one bar of Figure 1b.
type Fig1bRow struct {
	// System is "M3", "Spark x4" or "Spark x8".
	System string
	// Algorithm is "logreg" or "kmeans".
	Algorithm string
	// Seconds is the simulated runtime of the full job.
	Seconds float64
	// PaperSeconds is the figure's reported value for reference.
	PaperSeconds float64
	// RatioToM3 is Seconds / (M3 Seconds for the same algorithm).
	RatioToM3 float64
}

// PaperFig1bSeconds are the runtimes reported in Figure 1b.
var PaperFig1bSeconds = map[string]map[string]float64{
	"logreg": {"M3": 1950, "Spark x4": 8256, "Spark x8": 2864},
	"kmeans": {"M3": 1164, "Spark x4": 3491, "Spark x8": 1604},
}

// Fig1b regenerates Figure 1b: M3 (one PC) versus 4- and 8-instance
// Spark for logistic regression and k-means at the given workload
// scale (the paper's full dataset: 190 GB).
func Fig1b(machine Machine, w Workload) ([]Fig1bRow, error) {
	type runner struct {
		system string
		run    func(Workload) (Report, error)
	}
	algos := []struct {
		name    string
		runners []runner
	}{
		{"logreg", []runner{
			{"M3", func(w Workload) (Report, error) { return RunLogRegM3(machine, w) }},
			{"Spark x4", func(w Workload) (Report, error) { return RunLogRegSpark(4, w) }},
			{"Spark x8", func(w Workload) (Report, error) { return RunLogRegSpark(8, w) }},
		}},
		{"kmeans", []runner{
			{"M3", func(w Workload) (Report, error) { return RunKMeansM3(machine, w) }},
			{"Spark x4", func(w Workload) (Report, error) { return RunKMeansSpark(4, w) }},
			{"Spark x8", func(w Workload) (Report, error) { return RunKMeansSpark(8, w) }},
		}},
	}

	var rows []Fig1bRow
	for _, algo := range algos {
		var m3Seconds float64
		for _, r := range algo.runners {
			rep, err := r.run(w)
			if err != nil {
				return nil, fmt.Errorf("bench: fig1b %s/%s: %w", algo.name, r.system, err)
			}
			if r.system == "M3" {
				m3Seconds = rep.Seconds
			}
			rows = append(rows, Fig1bRow{
				System:       r.system,
				Algorithm:    algo.name,
				Seconds:      rep.Seconds,
				PaperSeconds: PaperFig1bSeconds[algo.name][r.system],
			})
		}
		for i := range rows {
			if rows[i].Algorithm == algo.name && m3Seconds > 0 {
				rows[i].RatioToM3 = rows[i].Seconds / m3Seconds
			}
		}
	}
	return rows, nil
}

// IOBound regenerates the §3.1 utilization finding: an out-of-core
// logistic regression run whose disk is saturated while the CPU
// idles.
func IOBound(machine Machine, w Workload) (obs.Utilization, error) {
	rep, err := RunLogRegM3(machine, w)
	if err != nil {
		return obs.Utilization{}, err
	}
	return rep.Util, nil
}

// Predict regenerates the §4 prediction experiment: fit the runtime
// model on measurements up to trainMaxBytes, then compare predictions
// against actual runs at the held-out sizes. Returns per-size
// (predicted, actual) pairs.
type PredictPoint struct {
	SizeBytes int64
	Predicted float64
	Actual    float64
}

// Predict fits on small sizes and extrapolates to large ones.
func Predict(machine Machine, w Workload, trainSizes, testSizes []int64) ([]PredictPoint, perfmodel.Model, error) {
	var pts []perfmodel.Point
	for _, s := range trainSizes {
		wl := w
		wl.NominalBytes = s
		rep, err := RunLogRegM3(machine, wl)
		if err != nil {
			return nil, perfmodel.Model{}, err
		}
		pts = append(pts, perfmodel.Point{SizeBytes: float64(s), Seconds: rep.Seconds})
	}
	model, err := perfmodel.Fit(pts, float64(machine.RAMBytes))
	if err != nil {
		return nil, perfmodel.Model{}, err
	}
	var out []PredictPoint
	for _, s := range testSizes {
		wl := w
		wl.NominalBytes = s
		rep, err := RunLogRegM3(machine, wl)
		if err != nil {
			return nil, perfmodel.Model{}, err
		}
		out = append(out, PredictPoint{
			SizeBytes: s,
			Predicted: model.Predict(float64(s)),
			Actual:    rep.Seconds,
		})
	}
	return out, model, nil
}
