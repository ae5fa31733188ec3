package kmeans

import (
	"context"
	"testing"

	"m3/internal/mat"
	"m3/internal/vm"
)

func TestMiniBatchRecoversBlobs(t *testing.T) {
	const k = 4
	x, truth := blobs(400, k)
	// Rows 0..k-1 come from distinct true clusters (truth = i%k), so
	// they make a well-spread deterministic init.
	init := mat.NewDense(k, 2)
	for c := 0; c < k; c++ {
		row, _ := x.Row(c)
		init.SetRow(c, row)
	}
	res, err := MiniBatch(context.Background(), x, MiniBatchOptions{K: k, Seed: 3, Steps: 200, BatchSize: 64, InitCentroids: init})
	if err != nil {
		t.Fatal(err)
	}
	// Majority mapping: each true cluster should map to a single
	// predicted cluster for nearly all points.
	agree := 0
	mapping := map[int]int{}
	for i, a := range res.Assignments {
		if m, ok := mapping[truth[i]]; ok {
			if m == a {
				agree++
			}
		} else {
			mapping[truth[i]] = a
			agree++
		}
	}
	if frac := float64(agree) / 400; frac < 0.95 {
		t.Errorf("cluster agreement = %v", frac)
	}
	if res.Inertia <= 0 {
		t.Errorf("inertia = %v", res.Inertia)
	}
}

func TestMiniBatchValidation(t *testing.T) {
	x, _ := blobs(10, 2)
	if _, err := MiniBatch(context.Background(), x, MiniBatchOptions{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := MiniBatch(context.Background(), x, MiniBatchOptions{K: 11}); err == nil {
		t.Error("accepted K>n")
	}
	badInit := mat.NewDense(3, 2)
	if _, err := MiniBatch(context.Background(), x, MiniBatchOptions{K: 2, InitCentroids: badInit}); err == nil {
		t.Error("accepted wrong init shape")
	}
}

func TestMiniBatchDeterministic(t *testing.T) {
	x, _ := blobs(200, 3)
	a, err := MiniBatch(context.Background(), x, MiniBatchOptions{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MiniBatch(context.Background(), x, MiniBatchOptions{K: 3, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if a.Inertia != b.Inertia {
		t.Errorf("same seed diverged: %v vs %v", a.Inertia, b.Inertia)
	}
}

func TestMiniBatchNearFullBatchQuality(t *testing.T) {
	// Mini-batch should land within 2x of full Lloyd inertia on easy
	// blobs.
	x, _ := blobs(300, 3)
	full, err := Run(context.Background(), x, Options{K: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	mb, err := MiniBatch(context.Background(), x, MiniBatchOptions{K: 3, Seed: 4, Steps: 300})
	if err != nil {
		t.Fatal(err)
	}
	if mb.Inertia > 2*full.Inertia+1 {
		t.Errorf("mini-batch inertia %v vs full %v", mb.Inertia, full.Inertia)
	}
}

func TestMiniBatchTouchesFarLessDataThanLloyd(t *testing.T) {
	// The point of the variant: mini-batch touches much less of an
	// out-of-core matrix than full Lloyd. Compare element bytes
	// touched by 10 Lloyd iterations vs 100 mini-batch steps of 16
	// rows on a 512-row paged matrix.
	mk := func() (*mat.Dense, *vm.Paged) {
		data := make([]float64, 512*64)
		ps, err := vm.NewPaged(data, vm.PagedConfig{VM: vm.Config{
			PageSize:   4096,
			CacheBytes: 8 * 4096, // tiny cache → every pass re-reads
			Disk:       vm.DiskModel{BandwidthBytes: 1e9},
		}})
		if err != nil {
			t.Fatal(err)
		}
		x, err := mat.NewDenseStore(ps, 512, 64)
		if err != nil {
			t.Fatal(err)
		}
		return x, ps
	}

	xl, psl := mk()
	if _, err := Run(context.Background(), xl, Options{K: 4, Seed: 1, MaxIterations: 10, RunAllIterations: true, InitCentroids: mat.NewDense(4, 64)}); err != nil {
		t.Fatal(err)
	}
	lloydBytes := psl.Stats().BytesTouched

	xm, psm := mk()
	if _, err := MiniBatch(context.Background(), xm, MiniBatchOptions{K: 4, Seed: 1, Steps: 100, BatchSize: 16, InitCentroids: mat.NewDense(4, 64)}); err != nil {
		t.Fatal(err)
	}
	mbBytes := psm.Stats().BytesTouched

	if mbBytes*2 > lloydBytes {
		t.Errorf("mini-batch read %d bytes, Lloyd %d — expected > 2x reduction", mbBytes, lloydBytes)
	}
}
