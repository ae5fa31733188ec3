package bench

import (
	"context"

	"fmt"
	"io"
	"text/tabwriter"

	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/logreg"
	"m3/internal/store"
	"m3/internal/trace"
)

// LocalityReport characterizes one algorithm's recorded access
// pattern — the paper's §4 locality study, produced by instrumenting
// the real implementations rather than by assumption.
type LocalityReport struct {
	// Algorithm is "logreg" or "kmeans".
	Algorithm string
	// References is the recorded page-touch count.
	References int
	// WorkingSetPages is the distinct page count.
	WorkingSetPages int
	// SequentialFraction is the same/successor-page reference share.
	SequentialFraction float64
	// Curve is the exact LRU miss-ratio at cache sizes expressed as
	// fractions of the working set.
	Curve []trace.MissRatioPoint
	// KneeFraction is the cache size (as a fraction of the working
	// set) at which the miss ratio first falls below 50% — the
	// predicted RAM requirement for in-memory behaviour.
	KneeFraction float64
}

// Locality records page-access traces of logistic regression and
// k-means over an instrumented store, then derives their locality
// profile and miss-ratio curves. Everything comes from one
// small-scale run per algorithm; Mattson analysis extrapolates to
// every cache size at once.
func Locality(w Workload) ([]LocalityReport, error) {
	w, err := w.withDefaults()
	if err != nil {
		return nil, err
	}
	data, y := w.materialize()

	record := func(name string, run func(x *mat.Dense) error) (LocalityReport, error) {
		cp := make([]float64, len(data))
		copy(cp, data)
		rec := trace.NewRecorder(store.FromSlice(cp), 4096)
		x, err := mat.NewDenseStore(rec, w.ActualRows, w.Features)
		if err != nil {
			return LocalityReport{}, err
		}
		// One scanner: the reference string is the sequential one, not
		// an interleaving chosen by the host scheduler.
		x.SetWorkersHint(1)
		if err := run(x); err != nil {
			return LocalityReport{}, err
		}
		tr := rec.Trace()
		if tr.Len() == 0 {
			return LocalityReport{}, fmt.Errorf("bench: %s recorded no references", name)
		}
		ws := int64(tr.DistinctPages())
		sizes := []int64{
			max64(1, ws/8), max64(1, ws/4), max64(1, ws/2),
			max64(1, ws*3/4), ws, ws * 2,
		}
		curve, err := tr.MissRatioCurve(sizes)
		if err != nil {
			return LocalityReport{}, err
		}
		knee := trace.KneePages(curve, 0.5)
		return LocalityReport{
			Algorithm:          name,
			References:         tr.Len(),
			WorkingSetPages:    int(ws),
			SequentialFraction: tr.SequentialFraction(),
			Curve:              curve,
			KneeFraction:       float64(knee) / float64(ws),
		}, nil
	}

	logregRep, err := record("logreg", func(x *mat.Dense) error {
		_, err := logreg.TrainOn(context.Background(), fit.NewLocal(x, y, 1), false, 0, logreg.Options{
			Lambda: 1e-4, MaxIterations: 3, GradTol: 1e-12,
		})
		return err
	})
	if err != nil {
		return nil, err
	}

	kmeansRep, err := record("kmeans", func(x *mat.Dense) error {
		_, err := kmeans.Run(context.Background(), x, kmeans.Options{
			K: w.K, MaxIterations: 3,
			InitCentroids:    w.InitialCentroids(),
			RunAllIterations: true,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	return []LocalityReport{logregRep, kmeansRep}, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// RenderLocality writes the locality study as tables.
func RenderLocality(w io.Writer, reports []LocalityReport) error {
	for _, r := range reports {
		fmt.Fprintf(w, "%s: %d page references, working set %d pages, sequential fraction %.3f\n",
			r.Algorithm, r.References, r.WorkingSetPages, r.SequentialFraction)
		tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
		fmt.Fprintln(tw, "  cache (x working set)\tmiss ratio")
		for _, p := range r.Curve {
			fmt.Fprintf(tw, "  %.2f\t%.3f\n", float64(p.CachePages)/float64(r.WorkingSetPages), p.MissRatio)
		}
		if err := tw.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(w, "  → in-memory behaviour predicted at cache >= %.2fx working set\n\n", r.KneeFraction)
	}
	return nil
}
