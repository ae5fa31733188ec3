package dist

// Spec describes one fit the coordinator drives: a flat copy of the
// public estimator configuration that the root package's Cluster.Fit
// fills in and Coordinator.Fit turns back into the trainers' own
// Options. It never leaves the coordinator process — what crosses the
// wire is each pass's argument. One Spec describes either a single
// estimator or a pipeline (Stages + Final).
type Spec struct {
	// Algo selects the program: "logistic", "softmax", "linear",
	// "linear-exact", "bayes", "kmeans", "pca", "standard-scaler",
	// "minmax-scaler" or "pipeline".
	Algo string

	// Logistic: derive 0/1 labels by comparing to Positive.
	Binarize bool
	Positive float64

	// Softmax / bayes class count.
	Classes int

	// Shared optimizer surface (logistic, softmax, linear).
	Lambda        float64
	NoIntercept   bool
	MaxIterations int
	GradTol       float64

	// Bayes.
	VarSmoothing float64

	// K-means.
	K                int
	Tol              float64
	Seed             uint64
	RandomInit       bool
	RunAllIterations bool
	// InitCentroids is K×D row-major when non-nil.
	InitCentroids []float64

	// PCA.
	Components int

	// Pipeline: transformer stages then the final estimator.
	Stages []Spec
	Final  *Spec
}
