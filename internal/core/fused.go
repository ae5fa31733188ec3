package core

// Operator fusion for transformer chains: instead of materializing a
// full intermediate matrix per pipeline stage, a fused dataset is a
// virtual view whose scans run each stage's per-worker block kernel
// between the block read and the consumer callback. A K-stage
// pipeline's fitting passes then touch only the source data — the
// paper's streaming thesis applied to preprocessing: intermediates
// exist one row at a time in per-worker buffers, never in memory or
// on disk as whole matrices.

import (
	"context"
	"errors"
	"fmt"

	"m3/internal/mat"
)

// FuseKernels composes a transformer chain into a single per-worker
// kernel factory: each returned kernel threads a row through every
// stage, staging intermediates in private buffers so one kernel call
// performs the whole chain with zero allocation. The chain must be
// non-empty and width-compatible (validated by FusedDataset).
func FuseKernels(chain []BlockTransformer) func() RowKernel {
	if len(chain) == 1 {
		bt := chain[0]
		return bt.BlockKernel
	}
	stages := append([]BlockTransformer(nil), chain...)
	return func() RowKernel {
		kerns := make([]RowKernel, len(stages))
		bufs := make([][]float64, len(stages)-1)
		for i, bt := range stages {
			kerns[i] = bt.BlockKernel()
			if i < len(bufs) {
				bufs[i] = make([]float64, bt.OutCols())
			}
		}
		return func(dst, src []float64) []float64 {
			cur := src
			for i, k := range kerns[:len(kerns)-1] {
				cur = k(bufs[i], cur)
			}
			return kerns[len(kerns)-1](dst, cur)
		}
	}
}

// FusedDataset returns a virtual dataset that applies chain on the
// fly: its matrix is a fused view (mat.NewFused) whose scans deliver
// transformed rows straight from the source blocks, so fitting the
// next stage's statistics — or a single-pass trainer — costs no
// intermediate materialization. Fusing an already-fused dataset
// composes the chains (the source store is still read exactly once
// per row). The view shares the source backing: it stays valid
// exactly as long as ds does, and Release on it is a no-op.
func FusedDataset(ds *Dataset, chain []BlockTransformer) (*Dataset, error) {
	if ds == nil || ds.X == nil {
		return nil, errors.New("core: nil dataset")
	}
	if len(chain) == 0 {
		return nil, errors.New("core: empty transformer chain")
	}
	in := ds.X.Cols()
	for i, bt := range chain {
		if bt == nil {
			return nil, fmt.Errorf("core: nil transformer at chain position %d", i)
		}
		if got := bt.InCols(); got != in {
			return nil, fmt.Errorf("core: chain stage %d expects %d columns, previous stage yields %d", i, got, in)
		}
		in = bt.OutCols()
		if in < 1 {
			return nil, fmt.Errorf("core: chain stage %d yields non-positive width %d", i, in)
		}
	}
	x := mat.NewFused(ds.X, in, FuseKernels(chain))
	return &Dataset{
		X:       x,
		Labels:  ds.Labels,
		Workers: ds.Workers,
		Mapped:  ds.Mapped,
		Path:    ds.Path,
		Engine:  ds.Engine,
	}, nil
}

// Materialize runs one fused pass that writes ds's rows — transformed
// rows, when ds is a fused view — into engine scratch, returning a
// concrete dataset. This is the single materialization a pipeline
// performs for multi-epoch trainers: the cache is built by streaming
// the source through the whole fused chain once. For an already
// concrete dataset it is a plain copy. workers <= 0 inherits the
// dataset's engine setting. A remote dataset is cached by its holders
// and returned: its Release has nothing to free, because a holder
// drops its cache when its view is next reset.
func Materialize(ctx context.Context, ds *Dataset, workers int) (*Dataset, error) {
	if ds != nil && ds.remote != nil {
		if err := ds.remote.Materialize(ctx); err != nil {
			return nil, err
		}
		return ds, nil
	}
	if ds == nil || ds.X == nil {
		return nil, errors.New("core: nil dataset")
	}
	return TransformDataset(ctx, ds, ds.X.Cols(), workers, func() RowKernel {
		// Identity: the scan already applied any fused chain, so the
		// delivered row is the transformed row; SetRow copies it.
		return func(dst, src []float64) []float64 { return src }
	})
}
