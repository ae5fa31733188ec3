// Package sparkml implements the distributed baselines of Figure 1b:
// logistic regression (driver-side L-BFGS with distributed gradient
// computation, MLlib-style) and k-means (broadcast centroids,
// partition-local assignment, treeAggregate of sums) running on the
// simulated Spark cluster of internal/cluster.
//
// The algorithms execute their real math on the partitioned data —
// so their models/centroids can be compared numerically with M3's —
// while the cluster accounts simulated seconds for the nominal
// (paper-scale) dataset size.
package sparkml

import (
	"fmt"
	"math"

	"m3/internal/blas"
	"m3/internal/cluster"
	"m3/internal/mat"
)

// PartitionedData is an RDD whose partition contents are real rows.
type PartitionedData struct {
	// Parts are row windows of the source matrix, one per partition.
	Parts []*mat.Dense
	// Labels are per-partition label slices (may be nil).
	Labels [][]float64
	// RDD tracks nominal size and cache state in the cluster.
	RDD *cluster.RDD

	rows, cols int
}

// Partition splits x (and optional labels y) across the cluster's
// default partition count and registers an RDD of nominalBytes for
// timing. If nominalBytes is zero the actual data size is used.
func Partition(c *cluster.Cluster, x *mat.Dense, y []float64, nominalBytes int64) (*PartitionedData, error) {
	n, d := x.Dims()
	if y != nil && len(y) != n {
		return nil, fmt.Errorf("sparkml: %d labels for %d rows", len(y), n)
	}
	if nominalBytes <= 0 {
		nominalBytes = x.SizeBytes()
	}
	rdd, err := c.NewRDD(nominalBytes, 0)
	if err != nil {
		return nil, err
	}
	parts := rdd.Partitions
	if parts > n {
		parts = n
		rdd.Partitions = n
	}
	pd := &PartitionedData{RDD: rdd, rows: n, cols: d}
	for p := 0; p < parts; p++ {
		lo := n * p / parts
		hi := n * (p + 1) / parts
		pd.Parts = append(pd.Parts, x.RowWindow(lo, hi))
		if y != nil {
			pd.Labels = append(pd.Labels, y[lo:hi])
		}
	}
	return pd, nil
}

// Rows returns the total row count.
func (pd *PartitionedData) Rows() int { return pd.rows }

// Cols returns the feature count.
func (pd *PartitionedData) Cols() int { return pd.cols }

// --- Distributed logistic regression ---------------------------------

// LogRegJob is an optimize.Objective whose every evaluation is one
// distributed pass: a gradient scan stage over all partitions
// followed by a treeAggregate of the (d+1)-vector. Spark MLlib's
// LogisticRegressionWithLBFGS has exactly this structure.
type LogRegJob struct {
	c         *cluster.Cluster
	data      *PartitionedData
	lambda    float64
	intercept bool
	// Passes counts distributed scans (= objective evaluations).
	Passes int
}

// NewLogRegJob validates labels (0/1) and builds the job.
func NewLogRegJob(c *cluster.Cluster, data *PartitionedData, lambda float64, intercept bool) (*LogRegJob, error) {
	if data.Labels == nil {
		return nil, fmt.Errorf("sparkml: logistic regression needs labels")
	}
	for _, part := range data.Labels {
		for _, v := range part {
			if v != 0 && v != 1 {
				return nil, fmt.Errorf("sparkml: label %v, want 0 or 1", v)
			}
		}
	}
	if lambda < 0 {
		return nil, fmt.Errorf("sparkml: negative lambda")
	}
	return &LogRegJob{c: c, data: data, lambda: lambda, intercept: intercept}, nil
}

// Dim returns the parameter count.
func (j *LogRegJob) Dim() int {
	d := j.data.cols
	if j.intercept {
		d++
	}
	return d
}

// Eval runs the distributed loss+gradient pass.
func (j *LogRegJob) Eval(params, grad []float64) float64 {
	d := j.data.cols
	w := params[:d]
	var b float64
	if j.intercept {
		b = params[d]
	}
	blas.Fill(grad, 0)
	gw := grad[:d]
	var gb, loss float64

	// Partition-local partial sums (the "map" side).
	for p, part := range j.data.Parts {
		yp := j.data.Labels[p]
		part.ForEachRow(func(i int, row []float64) {
			z := blas.Dot(row, w) + b
			var prob float64
			if z >= 0 {
				ez := math.Exp(-z)
				prob = 1 / (1 + ez)
				if yp[i] == 1 {
					loss += math.Log1p(ez)
				} else {
					loss += z + math.Log1p(ez)
				}
			} else {
				ez := math.Exp(z)
				prob = ez / (1 + ez)
				if yp[i] == 1 {
					loss += -z + math.Log1p(ez)
				} else {
					loss += math.Log1p(ez)
				}
			}
			diff := prob - yp[i]
			blas.Axpy(diff, row, gw)
			gb += diff
		})
	}

	// Timing: one scan stage + one treeAggregate of the gradient.
	j.c.ScanStage(j.data.RDD)
	j.c.AggregateStage(int64(j.Dim()+1) * 8) // grad + loss scalar
	j.c.DriverCompute(int64(j.Dim()) * 8)
	j.Passes++

	n := float64(j.data.rows)
	loss /= n
	blas.Scal(1/n, gw)
	if j.intercept {
		grad[d] = gb / n
	}
	loss += 0.5 * j.lambda * blas.Dot(w, w)
	blas.Axpy(j.lambda, w, gw)
	return loss
}

// --- Distributed k-means ----------------------------------------------

// KMeansOptions configures the distributed k-means run.
type KMeansOptions struct {
	// K is the cluster count (the paper: 5).
	K int
	// Iterations is the exact Lloyd iteration count (the paper: 10).
	Iterations int
	// InitCentroids supplies the K×D starting centroids.
	InitCentroids *mat.Dense
}

// KMeansResult reports the distributed clustering outcome.
type KMeansResult struct {
	// Centroids is the final K×D matrix.
	Centroids *mat.Dense
	// Inertia is the final within-cluster sum of squares.
	Inertia float64
	// Iterations completed.
	Iterations int
}

// KMeans runs Lloyd iterations Spark-style: each iteration broadcasts
// the centroids, scans every partition once computing local sums and
// counts, treeAggregates them, and updates centroids on the driver.
func KMeans(c *cluster.Cluster, data *PartitionedData, opts KMeansOptions) (*KMeansResult, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("sparkml: K = %d", opts.K)
	}
	if opts.Iterations < 1 {
		return nil, fmt.Errorf("sparkml: iterations = %d", opts.Iterations)
	}
	if opts.InitCentroids == nil {
		return nil, fmt.Errorf("sparkml: InitCentroids required")
	}
	ik, id := opts.InitCentroids.Dims()
	if ik != opts.K || id != data.cols {
		return nil, fmt.Errorf("sparkml: InitCentroids %dx%d, want %dx%d", ik, id, opts.K, data.cols)
	}

	k, d := opts.K, data.cols
	centroids := opts.InitCentroids.Clone()
	flat, ok := centroids.Contiguous() // a clone is a K×d heap matrix
	if !ok {
		return nil, fmt.Errorf("sparkml: internal: centroid matrix not contiguous")
	}
	sums := make([]float64, k*d)
	counts := make([]int, k)
	res := &KMeansResult{Centroids: centroids}
	centroidBytes := int64(k*d) * 8

	for iter := 1; iter <= opts.Iterations; iter++ {
		c.BroadcastStage(centroidBytes)
		blas.Fill(sums, 0)
		for i := range counts {
			counts[i] = 0
		}
		inertia := 0.0
		for _, part := range data.Parts {
			part.ForEachRow(func(i int, row []float64) {
				bestC, best := blas.NearestRow(row, k, d, flat, d)
				inertia += best
				blas.Axpy(1, row, sums[bestC*d:(bestC+1)*d])
				counts[bestC]++
			})
		}
		c.ScanStage(data.RDD)
		c.AggregateStage(centroidBytes + int64(k)*8)

		row := make([]float64, d)
		for cc := 0; cc < k; cc++ {
			if counts[cc] == 0 {
				continue // Spark keeps the old centroid
			}
			copy(row, sums[cc*d:(cc+1)*d])
			blas.Scal(1/float64(counts[cc]), row)
			centroids.SetRow(cc, row)
		}
		c.DriverCompute(centroidBytes)
		res.Inertia = inertia
		res.Iterations = iter
	}
	return res, nil
}
