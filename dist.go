package m3

// Distributed training: a Cluster is a handle to a set of m3worker
// processes, each owning one contiguous, merge-group-aligned row
// shard of a dataset file. Cluster.Fit hands an estimator a dataset
// whose rows are those shards, and the estimator's own Fit — the one
// Engine.Fit runs — trains on it: every data pass becomes a round in
// which the workers fold their shards and the coordinator refolds the
// per-group partials in global row order, replaying a local grouped
// fold operation for operation (see internal/dist). The models are
// therefore bit-identical to local ones.

import (
	"context"
	"errors"
	"fmt"

	"m3/internal/dist"
	"m3/internal/obs"
)

// ClusterStats reports a coordinator's accumulated traffic: broadcast
// rounds, wire bytes in each direction and total straggler wait (the
// per-round gap between the fastest and slowest shard).
type ClusterStats = dist.Stats

// ClusterOptions tunes dialing and per-call deadlines.
type ClusterOptions = dist.Options

// Cluster is a connection to a row-sharded training cluster. It is
// not safe for concurrent Fit calls.
type Cluster struct {
	c *dist.Coordinator
}

// DialCluster connects to worker processes (started with m3worker) at
// the given addresses. Shard order follows address order, so the same
// address list always reproduces the same fold order — and therefore
// the same model bits.
func DialCluster(ctx context.Context, addrs []string, opts ClusterOptions) (*Cluster, error) {
	c, err := dist.DialWorkers(ctx, addrs, opts)
	if err != nil {
		return nil, err
	}
	return &Cluster{c: c}, nil
}

// Close closes every worker connection; workers tear down their shard
// engines when the connection drops.
func (cl *Cluster) Close() error { return cl.c.Close() }

// Workers returns the number of dialed workers.
func (cl *Cluster) Workers() int { return cl.c.Workers() }

// Shards returns the number of workers actually holding a shard of
// the last opened dataset (small datasets may use fewer than dialed).
func (cl *Cluster) Shards() int { return cl.c.Shards() }

// Stats returns cumulative traffic counters.
func (cl *Cluster) Stats() ClusterStats { return cl.c.Stats() }

// Fit trains est on the dataset file at dataPath, sharded across the
// cluster's workers. Every worker must be able to open dataPath (a
// shared filesystem, or a copy of the file at the same path). est.Fit
// runs here on a dataset whose rows are the shards, so any estimator
// Engine.Fit accepts is accepted, its callback and verbose logging run
// as they do locally, and the returned model is bit-identical — same
// predictions, same saved bytes — to eng.Fit on the whole file. The
// estimators that need their rows in one process (KNNClassifier,
// SGDClassifier, MiniBatchClustering) return an error saying so.
func (cl *Cluster) Fit(ctx context.Context, est Estimator, dataPath string) (Model, error) {
	if est == nil {
		return nil, errors.New("m3: nil estimator")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if obs.Enabled() {
		sp := obs.StartSpan("dist", fmt.Sprintf("fit %T", est))
		defer sp.End()
	}
	ds, err := cl.c.Dataset(ctx, dataPath)
	if err != nil {
		return nil, err
	}
	return est.Fit(ctx, ds)
}
