package bench

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"

	"m3/internal/cluster"
	"m3/internal/fit"
	"m3/internal/mat"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/logreg"
)

// sparkSource runs every round of a fit on the workload's own rows, in
// process, and charges the simulated cluster what Spark pays for it:
// a broadcast of the round's argument, one scan stage over the RDD, a
// treeAggregate of the partial states to the driver and the driver's
// update. The trainers driving it are the ones every real fit runs.
type sparkSource struct {
	*fit.Local
	c   *cluster.Cluster
	rdd *cluster.RDD
}

// newSparkSource registers the workload's nominal bytes as an RDD on
// the paper's EMR cluster of n m3.2xlarge workers.
func newSparkSource(instances int, w Workload, x *mat.Dense, y []float64) (*sparkSource, error) {
	c, err := cluster.New(instances, cluster.M32XLarge(), cluster.DefaultCostModel())
	if err != nil {
		return nil, err
	}
	rdd, err := c.NewRDD(w.NominalBytes, 0)
	if err != nil {
		return nil, err
	}
	return &sparkSource{Local: fit.NewLocal(x, y, 1), c: c, rdd: rdd}, nil
}

// Run implements fit.Source. The argument is sized as the body a
// distributed round ships, and that size n also prices the aggregated
// value: both passes' states have the argument's shape (a gradient is
// the size of the weights, centroid sums the size of the centroids).
// As in MLlib, every round broadcasts its argument, so each L-BFGS
// evaluation ships the weights.
func (s *sparkSource) Run(ctx context.Context, r fit.Round) (float64, error) {
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(r.Arg); err != nil {
		return 0, fmt.Errorf("bench: encode %s argument: %w", r.Pass, err)
	}
	n := int64(body.Len())
	s.c.BroadcastStage(n)
	stall, err := s.Local.Run(ctx, r)
	if err != nil {
		return stall, err
	}
	s.c.ScanStage(s.rdd)
	s.c.AggregateStage(n)
	s.c.DriverCompute(n)
	return stall, nil
}

// RunLogRegSpark trains the same logistic regression workload on a
// simulated Spark cluster of n instances and reports the simulated
// job time (cold start: the first pass reads HDFS).
func RunLogRegSpark(instances int, w Workload) (Report, error) {
	w, err := w.withDefaults()
	if err != nil {
		return Report{}, err
	}
	data, y := w.materialize()
	src, err := newSparkSource(instances, w, mat.NewDenseFrom(data, w.ActualRows, w.Features), y)
	if err != nil {
		return Report{}, err
	}
	m, err := logreg.TrainOn(context.Background(), src, false, 0, logreg.Options{
		Lambda:        1e-4,
		MaxIterations: w.Iterations,
		GradTol:       1e-12,
	})
	if err != nil {
		return Report{}, err
	}
	return Report{
		Name:       fmt.Sprintf("Spark x%d", instances),
		Seconds:    src.c.Clock(),
		Passes:     m.Result.Evaluations,
		FinalValue: m.Result.Value,
	}, nil
}

// RunKMeansSpark runs the same k-means workload on a simulated Spark
// cluster of n instances.
func RunKMeansSpark(instances int, w Workload) (Report, error) {
	w, err := w.withDefaults()
	if err != nil {
		return Report{}, err
	}
	data, _ := w.materialize()
	src, err := newSparkSource(instances, w, mat.NewDenseFrom(data, w.ActualRows, w.Features), nil)
	if err != nil {
		return Report{}, err
	}
	res, err := kmeans.RunOn(context.Background(), src, kmeans.Options{
		K:                w.K,
		MaxIterations:    w.Iterations,
		InitCentroids:    w.InitialCentroids(),
		RunAllIterations: true,
	})
	if err != nil {
		return Report{}, err
	}
	return Report{
		Name:       fmt.Sprintf("Spark x%d", instances),
		Seconds:    src.c.Clock(),
		Passes:     res.Iterations,
		FinalValue: res.Inertia,
	}, nil
}
