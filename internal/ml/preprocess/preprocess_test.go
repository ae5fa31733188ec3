package preprocess

import (
	"context"
	"m3/internal/fit"
	"math"
	"testing"
	"testing/quick"

	"m3/internal/mat"
)

func sampleMatrix() *mat.Dense {
	x := mat.NewDense(4, 3)
	vals := [][]float64{
		{1, 100, 5},
		{2, 200, 5},
		{3, 300, 5},
		{4, 400, 5},
	}
	for i, row := range vals {
		x.SetRow(i, row)
	}
	return x
}

func TestFitStandard(t *testing.T) {
	s, err := FitStandardOn(context.Background(), fit.NewLocal(sampleMatrix(), nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s.Mean[0]-2.5) > 1e-12 || math.Abs(s.Mean[1]-250) > 1e-9 {
		t.Errorf("means = %v", s.Mean)
	}
	// Population std of {1,2,3,4} = sqrt(1.25).
	if math.Abs(s.Std[0]-math.Sqrt(1.25)) > 1e-12 {
		t.Errorf("std[0] = %v", s.Std[0])
	}
	// Constant feature gets std 1 (no divide-by-zero).
	if s.Std[2] != 1 {
		t.Errorf("constant feature std = %v", s.Std[2])
	}
}

func TestStandardTransformInPlace(t *testing.T) {
	x := sampleMatrix()
	s, err := FitStandardOn(context.Background(), fit.NewLocal(x, nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Transform(x); err != nil {
		t.Fatal(err)
	}
	// Column means ~0, stds ~1 afterwards.
	for j := 0; j < 2; j++ {
		var mean float64
		for i := 0; i < 4; i++ {
			mean += x.At(i, j)
		}
		mean /= 4
		if math.Abs(mean) > 1e-12 {
			t.Errorf("col %d mean after transform = %v", j, mean)
		}
	}
	// Constant column became zeros.
	for i := 0; i < 4; i++ {
		if x.At(i, 2) != 0 {
			t.Errorf("constant col row %d = %v", i, x.At(i, 2))
		}
	}
}

func TestStandardValidation(t *testing.T) {
	one := mat.NewDense(1, 2)
	if _, err := FitStandardOn(context.Background(), fit.NewLocal(one, nil, 0)); err == nil {
		t.Error("accepted single row")
	}
	s, err := FitStandardOn(context.Background(), fit.NewLocal(sampleMatrix(), nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	wrong := mat.NewDense(2, 5)
	if err := s.Transform(wrong); err == nil {
		t.Error("accepted wrong width")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.TransformRow([]float64{1})
}

func TestFitMinMax(t *testing.T) {
	s, err := FitMinMaxOn(context.Background(), fit.NewLocal(sampleMatrix(), nil, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Min[0] != 1 || s.Range[0] != 3 {
		t.Errorf("min/range[0] = %v/%v", s.Min[0], s.Range[0])
	}
	row := []float64{4, 100, 5}
	s.TransformRow(row)
	if row[0] != 1 || row[1] != 0 {
		t.Errorf("transformed = %v", row)
	}
	if row[2] != 0 {
		t.Errorf("constant feature = %v want 0", row[2])
	}
}

func TestBinaryLabels(t *testing.T) {
	got := fit.BinaryLabels([]float64{0, 1, 2, 0, 5}, 0)
	want := []float64{1, 0, 0, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BinaryLabels = %v", got)
		}
	}
}

func TestIntLabels(t *testing.T) {
	got, err := fit.IntLabels([]float64{0, 3, 9}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got[1] != 3 {
		t.Errorf("IntLabels = %v", got)
	}
	if _, err := fit.IntLabels([]float64{1.5}, 10); err == nil {
		t.Error("accepted fractional label")
	}
	if _, err := fit.IntLabels([]float64{10}, 10); err == nil {
		t.Error("accepted out-of-range label")
	}
	if _, err := fit.IntLabels([]float64{-1}, 10); err == nil {
		t.Error("accepted negative label")
	}
}

// Property: standardization then inverse recovers the original row.
func TestPropertyStandardInvertible(t *testing.T) {
	f := func(seed int64) bool {
		r := uint64(seed)
		if r == 0 {
			r = 1
		}
		next := func() float64 {
			r ^= r << 13
			r ^= r >> 7
			r ^= r << 17
			return float64(r%2000)/100 - 10
		}
		x := mat.NewDense(8, 3)
		for i := 0; i < 8; i++ {
			for j := 0; j < 3; j++ {
				x.Set(i, j, next())
			}
		}
		s, err := FitStandardOn(context.Background(), fit.NewLocal(x, nil, 0))
		if err != nil {
			return false
		}
		orig := append([]float64(nil), x.RawRow(4)...)
		row := append([]float64(nil), orig...)
		s.TransformRow(row)
		for j := range row {
			back := row[j]*s.Std[j] + s.Mean[j]
			if math.Abs(back-orig[j]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestFitScansDeterministicAcrossWorkers: the blocked moment and
// extrema scans produce bit-identical scalers for every worker count
// (the block partition and merge order never consult it).
func TestFitScansDeterministicAcrossWorkers(t *testing.T) {
	x := mat.NewDense(1500, 8)
	r := uint64(99)
	next := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%100000)/1000 - 50
	}
	for i := 0; i < 1500; i++ {
		for j := 0; j < 8; j++ {
			x.Set(i, j, next())
		}
	}
	refStd, err := FitStandardOn(context.Background(), fit.NewLocal(x, nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	refMM, err := FitMinMaxOn(context.Background(), fit.NewLocal(x, nil, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		s, err := FitStandardOn(context.Background(), fit.NewLocal(x, nil, workers))
		if err != nil {
			t.Fatal(err)
		}
		m, err := FitMinMaxOn(context.Background(), fit.NewLocal(x, nil, workers))
		if err != nil {
			t.Fatal(err)
		}
		for j := 0; j < 8; j++ {
			if s.Mean[j] != refStd.Mean[j] || s.Std[j] != refStd.Std[j] {
				t.Fatalf("workers=%d: standard scaler differs at feature %d", workers, j)
			}
			if m.Min[j] != refMM.Min[j] || m.Range[j] != refMM.Range[j] {
				t.Fatalf("workers=%d: min-max scaler differs at feature %d", workers, j)
			}
		}
	}
}

// TestFitStandardCancellation: a pre-cancelled context aborts the scan.
func TestFitStandardCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := FitStandardOn(ctx, fit.NewLocal(sampleMatrix(), nil, 0)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if _, err := FitMinMaxOn(ctx, fit.NewLocal(sampleMatrix(), nil, 0)); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
