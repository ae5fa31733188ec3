package m3

// Integration tests: end-to-end flows crossing module boundaries,
// exercising the public API exactly the way the examples and a
// downstream user would.

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"m3/internal/dataset"
	"m3/internal/obs"
)

func TestIntegrationGenerateTrainEvaluate(t *testing.T) {
	// Full pipeline: generate → map → train all four learners →
	// evaluate on a held-out mapped dataset.
	dir := t.TempDir()
	trainPath := filepath.Join(dir, "train.m3")
	testPath := filepath.Join(dir, "test.m3")
	if err := GenerateInfimnist(trainPath, 400, 1); err != nil {
		t.Fatal(err)
	}
	if err := GenerateInfimnist(testPath, 200, 2); err != nil {
		t.Fatal(err)
	}

	eng := New(Config{Mode: MemoryMapped})
	defer eng.Close()
	trainTbl, err := eng.Open(trainPath)
	if err != nil {
		t.Fatal(err)
	}
	testTbl, err := eng.Open(testPath)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	binary := func(labels []float64) []float64 {
		y := make([]float64, len(labels))
		for i, v := range labels {
			if v == 0 {
				y[i] = 1
			}
		}
		return y
	}
	yTest := binary(testTbl.Labels)

	// L-BFGS logistic regression.
	lrModel, err := eng.Fit(ctx, LogisticRegression{
		Binarize: true, Positive: 0,
		Options: LogisticOptions{MaxIterations: 20},
	}, trainTbl)
	if err != nil {
		t.Fatal(err)
	}
	lr := lrModel.(*FittedLogistic)
	if acc := lr.Accuracy(testTbl.X, yTest); acc < 0.95 {
		t.Errorf("logreg test accuracy = %v", acc)
	}

	// Explicit 4-worker pool reaches the same quality.
	lrpModel, err := eng.Fit(ctx, LogisticRegression{
		Binarize: true, Positive: 0,
		Options: LogisticOptions{FitOptions: FitOptions{Workers: 4}, MaxIterations: 20},
	}, trainTbl)
	if err != nil {
		t.Fatal(err)
	}
	if acc := lrpModel.(*FittedLogistic).Accuracy(testTbl.X, yTest); acc < 0.95 {
		t.Errorf("parallel logreg test accuracy = %v", acc)
	}

	// SGD.
	sgdModel, err := eng.Fit(ctx, SGDClassifier{
		Binarize: true, Positive: 0,
		Options: SGDOptions{Epochs: 3},
	}, trainTbl)
	if err != nil {
		t.Fatal(err)
	}
	if acc := sgdModel.(*FittedLogistic).Accuracy(testTbl.X, yTest); acc < 0.9 {
		t.Errorf("sgd test accuracy = %v", acc)
	}

	// Softmax multiclass.
	smModel, err := eng.Fit(ctx, SoftmaxRegression{
		Classes: 10, Options: LogisticOptions{MaxIterations: 25},
	}, trainTbl)
	if err != nil {
		t.Fatal(err)
	}
	yMultiTest := make([]int, len(testTbl.Labels))
	for i, v := range testTbl.Labels {
		yMultiTest[i] = int(v)
	}
	if acc := smModel.(*FittedSoftmax).Accuracy(testTbl.X, yMultiTest); acc < 0.75 {
		t.Errorf("softmax test accuracy = %v", acc)
	}

	// K-means over the same mapped matrix.
	kmModel, err := eng.Fit(ctx, KMeansClustering{
		Options: KMeansOptions{K: 10, MaxIterations: 10, Seed: 5},
	}, trainTbl)
	if err != nil {
		t.Fatal(err)
	}
	km := kmModel.(*FittedKMeans)
	if km.Inertia <= 0 || len(km.Assignments) != 400 {
		t.Errorf("kmeans result: inertia %v, %d assignments", km.Inertia, len(km.Assignments))
	}
}

func TestIntegrationLinearRegressionOnMappedScratch(t *testing.T) {
	// Engine-managed scratch allocation (the paper's mmapAlloc) used
	// as a real training target.
	eng := New(Config{TempDir: t.TempDir()})
	defer eng.Close()
	const n, d = 500, 3
	x, err := eng.Alloc(n, d)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, n)
	r := uint64(5)
	next := func() float64 {
		r ^= r << 13
		r ^= r >> 7
		r ^= r << 17
		return float64(r%2000)/1000 - 1
	}
	for i := 0; i < n; i++ {
		a, b, c := next(), next(), next()
		x.Set(i, 0, a)
		x.Set(i, 1, b)
		x.Set(i, 2, c)
		y[i] = 2*a - b + 0.5*c + 4
	}
	lmModel, err := Fit(context.Background(), LinearRegression{}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	lm := lmModel.(*FittedLinear)
	want := []float64{2, -1, 0.5}
	for i, wv := range want {
		if math.Abs(lm.Weights[i]-wv) > 1e-3 {
			t.Errorf("weight %d = %v want %v", i, lm.Weights[i], wv)
		}
	}
	if math.Abs(lm.Intercept-4) > 1e-3 {
		t.Errorf("intercept = %v", lm.Intercept)
	}
	exModel, err := Fit(context.Background(), LinearRegression{Exact: true}, x, y)
	if err != nil {
		t.Fatal(err)
	}
	ex := exModel.(*FittedLinear)
	for i := range ex.Weights {
		if math.Abs(ex.Weights[i]-lm.Weights[i]) > 1e-4 {
			t.Errorf("exact vs lbfgs weight %d: %v vs %v", i, ex.Weights[i], lm.Weights[i])
		}
	}
}

func TestIntegrationFormatConversions(t *testing.T) {
	// m3 → csv → m3 and m3 → libsvm → m3 preserve content.
	dir := t.TempDir()
	orig := filepath.Join(dir, "orig.m3")
	if err := GenerateInfimnist(orig, 20, 6); err != nil {
		t.Fatal(err)
	}
	d, err := dataset.Open(orig)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	csvPath := filepath.Join(dir, "x.csv")
	cf, err := os.Create(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ExportCSV(cf); err != nil {
		t.Fatal(err)
	}
	cf.Close()
	back := filepath.Join(dir, "back.m3")
	if err := dataset.ImportCSV(csvPath, back, true); err != nil {
		t.Fatal(err)
	}
	d2, err := dataset.Open(back)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Rows != d.Rows || d2.Cols != d.Cols {
		t.Fatalf("csv roundtrip shape %dx%d vs %dx%d", d2.Rows, d2.Cols, d.Rows, d.Cols)
	}
	for i := range d.RawX() {
		if d.RawX()[i] != d2.RawX()[i] {
			t.Fatalf("csv roundtrip value %d differs", i)
		}
	}

	svmPath := filepath.Join(dir, "x.svm")
	sf, err := os.Create(svmPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.ExportLibSVM(sf); err != nil {
		t.Fatal(err)
	}
	sf.Close()
	back2 := filepath.Join(dir, "back2.m3")
	if err := dataset.ImportLibSVM(svmPath, back2); err != nil {
		t.Fatal(err)
	}
	d3, err := dataset.Open(back2)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.Rows != d.Rows {
		t.Fatalf("libsvm roundtrip rows %d vs %d", d3.Rows, d.Rows)
	}
	// libsvm drops trailing all-zero columns; compare the overlap.
	cols := int(d3.Cols)
	for i := int64(0); i < d.Rows; i++ {
		for j := 0; j < cols; j++ {
			if d.RawX()[int(i)*784+j] != d3.RawX()[int(i)*cols+j] {
				t.Fatalf("libsvm roundtrip (%d,%d) differs", i, j)
			}
		}
	}
}

func TestIntegrationSaveLoadModel(t *testing.T) {
	dir := t.TempDir()
	dsPath := filepath.Join(dir, "d.m3")
	if err := GenerateInfimnist(dsPath, 120, 9); err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Mode: MemoryMapped})
	defer eng.Close()
	tbl, err := eng.Open(dsPath)
	if err != nil {
		t.Fatal(err)
	}
	y := make([]float64, len(tbl.Labels))
	for i, v := range tbl.Labels {
		if v == 0 {
			y[i] = 1
		}
	}
	fitted, err := eng.Fit(context.Background(), LogisticRegression{
		Binarize: true, Positive: 0,
		Options: LogisticOptions{MaxIterations: 10},
	}, tbl)
	if err != nil {
		t.Fatal(err)
	}
	model := fitted.(*FittedLogistic)
	modelPath := filepath.Join(dir, "lr.model")
	if err := model.Save(modelPath); err != nil {
		t.Fatal(err)
	}
	loaded, kind, err := LoadModel(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if kind != "logistic" {
		t.Errorf("kind = %v", kind)
	}
	lm := loaded.(*LogisticModel)
	if lm.Accuracy(tbl.X, y) != model.Accuracy(tbl.X, y) {
		t.Error("loaded model disagrees with original")
	}

	// m3.Load returns the same model behind the fitted wrapper, plus
	// the header metadata.
	wrapped, info, err := Load(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "logistic" || info.InputCols != tbl.X.Cols() || info.Classes != 2 {
		t.Errorf("Load info = %+v", info)
	}
	wp, err := wrapped.PredictMatrix(tbl.X)
	if err != nil {
		t.Fatal(err)
	}
	mp, err := model.PredictMatrix(tbl.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wp {
		if wp[i] != mp[i] {
			t.Fatalf("Load-ed model prediction %d differs", i)
		}
	}
}

func TestIntegrationResidencyGrowsWithTraining(t *testing.T) {
	// Real OS behaviour: after training scans the mapping, most of
	// it is resident (mincore), and /proc sees the work.
	dir := t.TempDir()
	path := filepath.Join(dir, "d.m3")
	if err := GenerateInfimnist(path, 300, 3); err != nil {
		t.Fatal(err)
	}
	eng := New(Config{Mode: MemoryMapped})
	defer eng.Close()
	tbl, err := eng.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	before, berr := obs.ReadProc()
	if _, err := eng.Fit(context.Background(), LogisticRegression{
		Binarize: true, Positive: 0,
		Options: LogisticOptions{MaxIterations: 5},
	}, tbl); err != nil {
		t.Fatal(err)
	}
	st := tbl.X.Store().Stats()
	if st.BytesTouched == 0 {
		t.Error("no bytes accounted during training")
	}
	if st.ResidentBytes <= 0 {
		t.Error("mapping not resident after training scans")
	}
	if berr == nil {
		after, err := obs.ReadProc()
		if err == nil {
			d := after.Sub(before)
			if d.UserSeconds < 0 {
				t.Errorf("negative cpu delta: %+v", d)
			}
		}
	}
}
