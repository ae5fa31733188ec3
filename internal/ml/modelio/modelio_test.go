package modelio

import (
	"bytes"
	"context"
	"encoding/gob"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"m3/internal/fit"
	"m3/internal/infimnist"
	"m3/internal/mat"
	"m3/internal/ml/bayes"
	"m3/internal/ml/kmeans"
	"m3/internal/ml/linreg"
	"m3/internal/ml/logreg"
	"m3/internal/ml/pca"
	"m3/internal/ml/preprocess"
)

// digitData returns n digits, their 0-vs-rest labels and their class
// labels.
func digitData(t *testing.T, n int) (*mat.Dense, []float64, []float64) {
	t.Helper()
	g := infimnist.Generator{Seed: 17}
	xs, labels := g.Matrix(0, int64(n))
	x := mat.NewDenseFrom(xs, n, infimnist.Features)
	return x, fit.BinaryLabels(labels, 0), labels
}

func TestLogisticRoundTrip(t *testing.T) {
	x, y, _ := digitData(t, 80)
	m, err := logreg.TrainOn(context.Background(), fit.NewLocal(x, y, 0), false, 0, logreg.Options{MaxIterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, kind, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindLogistic {
		t.Errorf("kind = %v", kind)
	}
	lm := got.(*logreg.Model)
	if lm.Intercept != m.Intercept {
		t.Errorf("intercept %v != %v", lm.Intercept, m.Intercept)
	}
	if acc1, acc2 := m.Accuracy(x, y), lm.Accuracy(x, y); acc1 != acc2 {
		t.Errorf("accuracy changed: %v -> %v", acc1, acc2)
	}
}

func TestSoftmaxRoundTrip(t *testing.T) {
	x, _, labels := digitData(t, 80)
	m, err := logreg.TrainSoftmaxOn(context.Background(), fit.NewLocal(x, labels, 0), 10, logreg.Options{MaxIterations: 8})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, kind, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindSoftmax {
		t.Errorf("kind = %v", kind)
	}
	sm := got.(*logreg.SoftmaxModel)
	row := x.RawRow(5)
	if sm.Predict(row) != m.Predict(row) {
		t.Error("prediction changed after round trip")
	}
}

func TestLinearRoundTrip(t *testing.T) {
	x := mat.NewDense(50, 2)
	y := make([]float64, 50)
	for i := 0; i < 50; i++ {
		x.Set(i, 0, float64(i))
		x.Set(i, 1, float64(i%7))
		y[i] = 2*float64(i) - float64(i%7) + 1
	}
	m, err := linreg.TrainOn(context.Background(), fit.NewLocal(x, y, 0), linreg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, kind, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindLinear {
		t.Errorf("kind = %v", kind)
	}
	lm := got.(*linreg.Model)
	if lm.Predict(x.RawRow(3)) != m.Predict(x.RawRow(3)) {
		t.Error("prediction changed")
	}
}

func TestKMeansRoundTripFile(t *testing.T) {
	x, _, _ := digitData(t, 60)
	res, err := kmeans.Run(context.Background(), x, kmeans.Options{K: 4, Seed: 2, MaxIterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "km.model")
	if err := SaveFile(path, res); err != nil {
		t.Fatal(err)
	}
	got, kind, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindKMeans {
		t.Errorf("kind = %v", kind)
	}
	km := got.(*kmeans.Result)
	row := x.RawRow(9)
	if km.Predict(row) != res.Predict(row) {
		t.Error("assignment changed after round trip")
	}
}

func TestBayesRoundTrip(t *testing.T) {
	x, _, labels := digitData(t, 100)
	m, err := bayes.TrainOn(context.Background(), fit.NewLocal(x, labels, 0), 10, bayes.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, kind, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindBayes {
		t.Errorf("kind = %v", kind)
	}
	bm := got.(*bayes.Model)
	if bm.Predict(x.RawRow(0)) != m.Predict(x.RawRow(0)) {
		t.Error("prediction changed")
	}
}

func TestSaveRejectsUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, 42); err == nil {
		t.Error("accepted int")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Error("loaded garbage")
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loaded missing file")
	}
}

func TestPCARoundTrip(t *testing.T) {
	x, _, _ := digitData(t, 80)
	res, err := pca.FitOn(context.Background(), fit.NewLocal(x, nil, 0), pca.Options{Components: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "pca.model")
	if err := SaveFile(path, res); err != nil {
		t.Fatal(err)
	}
	got, kind, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindPCA {
		t.Errorf("kind = %v", kind)
	}
	pr := got.(*pca.Result)
	row := x.RawRow(11)
	want := make([]float64, 3)
	have := make([]float64, 3)
	res.Transform(row, want)
	pr.Transform(row, have)
	for i := range want {
		if want[i] != have[i] {
			t.Fatalf("coordinate %d changed after round trip: %v vs %v", i, have[i], want[i])
		}
	}
	if pr.TotalVariance != res.TotalVariance {
		t.Errorf("total variance changed: %v vs %v", pr.TotalVariance, res.TotalVariance)
	}

	// Corrupt payload shape (component count disagreeing with K×D) is
	// rejected by Load. Encode the raw frames directly so the writer
	// path cannot fix it up.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(header{Version: version, Kind: KindPCA, Meta: Meta{InputCols: 2, OutputCols: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(payloadFrame{Payload: pcaPayload{
		Components: []float64{1, 2, 3}, K: 2, D: 2,
	}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(&buf); err == nil {
		t.Error("Load accepted a pca payload with 3 components for a 2x2 shape")
	}
}

func TestScalerRoundTrip(t *testing.T) {
	std := &preprocess.StandardScaler{Mean: []float64{1, 2, 3}, Std: []float64{0.5, 1, 2}}
	mm := &preprocess.MinMaxScaler{Min: []float64{-1, 0}, Range: []float64{2, 4}}

	for _, tc := range []struct {
		name  string
		model any
		kind  Kind
	}{
		{"standard", std, KindStandardScaler},
		{"minmax", mm, KindMinMaxScaler},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if k, err := KindOf(tc.model); err != nil || k != tc.kind {
				t.Fatalf("KindOf = %v (err %v), want %v", k, err, tc.kind)
			}
			path := filepath.Join(t.TempDir(), "s.model")
			if err := SaveFile(path, tc.model); err != nil {
				t.Fatal(err)
			}
			got, kind, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if kind != tc.kind {
				t.Errorf("kind = %v", kind)
			}
			switch s := got.(type) {
			case *preprocess.StandardScaler:
				for i := range std.Mean {
					if s.Mean[i] != std.Mean[i] || s.Std[i] != std.Std[i] {
						t.Fatalf("feature %d changed after round trip", i)
					}
				}
			case *preprocess.MinMaxScaler:
				for i := range mm.Min {
					if s.Min[i] != mm.Min[i] || s.Range[i] != mm.Range[i] {
						t.Fatalf("feature %d changed after round trip", i)
					}
				}
			default:
				t.Fatalf("unexpected type %T", got)
			}
		})
	}

	// Corrupt scaler payloads (mismatched vector lengths) are rejected.
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(header{Version: version, Kind: KindStandardScaler, Meta: Meta{InputCols: 2, OutputCols: 2}}); err != nil {
		t.Fatal(err)
	}
	if err := enc.Encode(payloadFrame{Payload: standardScalerPayload{
		Mean: []float64{1, 2}, Std: []float64{1},
	}}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(&buf); err == nil {
		t.Error("Load accepted a standard-scaler payload with 2 means and 1 std")
	}
}

func TestPipelineEnvelopeRoundTrip(t *testing.T) {
	// A pipeline whose stages cover a scaler, a decomposition and a
	// final model — each framed as a nested envelope.
	std := &preprocess.StandardScaler{Mean: []float64{0, 1}, Std: []float64{1, 2}}
	pc := &pca.Result{
		Components:  mat.NewDenseFrom([]float64{1, 0}, 1, 2),
		Eigenvalues: []float64{2}, Mean: []float64{0, 0}, TotalVariance: 3,
	}
	lm := &logreg.Model{Weights: []float64{0.5}, Intercept: -1}
	p := &Pipeline{Stages: []any{std, pc, lm}}

	path := filepath.Join(t.TempDir(), "p.model")
	if err := SaveFile(path, p); err != nil {
		t.Fatal(err)
	}
	got, kind, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if kind != KindPipeline {
		t.Errorf("kind = %v", kind)
	}
	lp := got.(*Pipeline)
	if len(lp.Stages) != 3 {
		t.Fatalf("%d stages after round trip", len(lp.Stages))
	}
	if s, ok := lp.Stages[0].(*preprocess.StandardScaler); !ok || s.Mean[1] != 1 {
		t.Errorf("stage 0 = %T", lp.Stages[0])
	}
	if s, ok := lp.Stages[1].(*pca.Result); !ok || s.TotalVariance != 3 {
		t.Errorf("stage 1 = %T", lp.Stages[1])
	}
	if s, ok := lp.Stages[2].(*logreg.Model); !ok || s.Intercept != -1 {
		t.Errorf("stage 2 = %T", lp.Stages[2])
	}

	// Nested pipelines (a pipeline stage that is itself a pipeline)
	// round-trip too.
	nested := &Pipeline{Stages: []any{std, p}}
	path2 := filepath.Join(t.TempDir(), "nested.model")
	if err := SaveFile(path2, nested); err != nil {
		t.Fatal(err)
	}
	got2, _, err := LoadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	inner, ok := got2.(*Pipeline).Stages[1].(*Pipeline)
	if !ok || len(inner.Stages) != 3 {
		t.Fatalf("nested stage = %T", got2.(*Pipeline).Stages[1])
	}

	// Empty pipelines have no serial form.
	if err := SaveFile(filepath.Join(t.TempDir(), "e.model"), &Pipeline{}); err == nil {
		t.Error("Save accepted an empty pipeline")
	}
}

func TestDescribeReadsHeaderOnly(t *testing.T) {
	std := &preprocess.StandardScaler{Mean: []float64{0, 1, 2}, Std: []float64{1, 2, 3}}
	pc := &pca.Result{
		Components:  mat.NewDenseFrom([]float64{1, 0, 0, 0, 1, 0}, 2, 3),
		Eigenvalues: []float64{2, 1}, Mean: []float64{0, 0, 0}, TotalVariance: 3,
	}
	sm := &logreg.SoftmaxModel{
		Weights: make([]float64, 2*4), Bias: make([]float64, 4), Classes: 4, Features: 2,
	}
	p := &Pipeline{Stages: []any{std, pc, sm}}

	for _, tc := range []struct {
		name  string
		model any
		kind  Kind
		want  Meta
	}{
		{"logistic", &logreg.Model{Weights: []float64{1, 2, 3}}, KindLogistic,
			Meta{InputCols: 3, Classes: 2}},
		{"softmax", sm, KindSoftmax, Meta{InputCols: 2, Classes: 4}},
		{"linear", &linreg.Model{Weights: []float64{1, 2}}, KindLinear,
			Meta{InputCols: 2}},
		{"kmeans", &kmeans.Result{Centroids: mat.NewDenseFrom(make([]float64, 15), 5, 3)},
			KindKMeans, Meta{InputCols: 3, Classes: 5}},
		{"bayes", &bayes.Model{Classes: 10, Features: 7,
			Mean: make([]float64, 70), Var: make([]float64, 70), LogPrior: make([]float64, 10)},
			KindBayes, Meta{InputCols: 7, Classes: 10}},
		{"pca", pc, KindPCA, Meta{InputCols: 3, OutputCols: 2}},
		{"standard-scaler", std, KindStandardScaler, Meta{InputCols: 3, OutputCols: 3}},
		{"pipeline", p, KindPipeline, Meta{
			InputCols: 3, Classes: 4,
			Stages: []Kind{KindStandardScaler, KindPCA, KindSoftmax},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "m.model")
			if err := SaveFile(path, tc.model); err != nil {
				t.Fatal(err)
			}
			kind, meta, err := DescribeFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if kind != tc.kind {
				t.Errorf("kind = %v, want %v", kind, tc.kind)
			}
			if meta.InputCols != tc.want.InputCols || meta.OutputCols != tc.want.OutputCols ||
				meta.Classes != tc.want.Classes {
				t.Errorf("meta = %+v, want %+v", meta, tc.want)
			}
			if len(meta.Stages) != len(tc.want.Stages) {
				t.Fatalf("stages = %v, want %v", meta.Stages, tc.want.Stages)
			}
			for i := range meta.Stages {
				if meta.Stages[i] != tc.want.Stages[i] {
					t.Errorf("stage %d = %v, want %v", i, meta.Stages[i], tc.want.Stages[i])
				}
			}
			// LoadMeta surfaces the same header next to the payload.
			_, lk, lm, err := LoadFileMeta(path)
			if err != nil {
				t.Fatal(err)
			}
			if lk != kind || lm.InputCols != meta.InputCols || lm.Classes != meta.Classes {
				t.Errorf("LoadFileMeta header %v/%+v disagrees with Describe %v/%+v", lk, lm, kind, meta)
			}
		})
	}
}

func TestDescribeStopsBeforePayload(t *testing.T) {
	// Describe must not read past the header frame: serve a file whose
	// payload frame is truncated and check the header still decodes.
	big := &logreg.Model{Weights: make([]float64, 1<<16)}
	var buf bytes.Buffer
	if err := Save(&buf, big); err != nil {
		t.Fatal(err)
	}
	full := buf.Len()
	truncated := bytes.NewReader(buf.Bytes()[:256])
	kind, meta, err := Describe(truncated)
	if err != nil {
		t.Fatalf("Describe on truncated payload: %v (file is %d bytes)", err, full)
	}
	if kind != KindLogistic || meta.InputCols != 1<<16 {
		t.Errorf("kind %v meta %+v", kind, meta)
	}
	// The same truncated bytes cannot Load.
	if _, _, err := Load(bytes.NewReader(buf.Bytes()[:256])); err == nil {
		t.Error("Load succeeded on a truncated payload frame")
	}
}

func TestDescribeRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(header{Version: version + 1, Kind: KindLinear}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Describe(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Describe accepted a future format version")
	}
	if _, _, err := Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Error("Load accepted a future format version")
	}
}

// TestSaveBytesProcessIndependent pins the cross-process determinism
// of Save: gob allocates wire type IDs from a process-global counter,
// so without init's pinTypeIDs a process that gob-encoded anything
// else first (the distributed coordinator's wire protocol, say) would
// write byte-different files for the same model. The test re-execs
// itself as a helper that deliberately pollutes the gob ID space
// before saving, then compares the helper's bytes against an
// in-process save.
func TestSaveBytesProcessIndependent(t *testing.T) {
	model := &logreg.Model{Weights: []float64{0.5, -1.25, 3.0625}, Intercept: 0.75}
	if path := os.Getenv("MODELIO_SAVE_HELPER"); path != "" {
		// Simulate a coordinator: burn global type IDs on wire-ish
		// shapes before the model is ever saved.
		type wireFrame struct {
			Seq     int
			Payload []byte
			Tags    map[string]int
		}
		type wirePartial struct {
			Group int
			State []float64
		}
		enc := gob.NewEncoder(io.Discard)
		if err := enc.Encode(wireFrame{Seq: 1}); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode([]wirePartial{{Group: 2}}); err != nil {
			t.Fatal(err)
		}
		if err := SaveFile(path, model); err != nil {
			t.Fatal(err)
		}
		return
	}

	var local bytes.Buffer
	if err := Save(&local, model); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "helper.model")
	cmd := exec.Command(os.Args[0], "-test.run", "^TestSaveBytesProcessIndependent$", "-test.count=1")
	cmd.Env = append(os.Environ(), "MODELIO_SAVE_HELPER="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("helper process: %v\n%s", err, out)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(local.Bytes(), got) {
		t.Fatalf("saved bytes depend on process gob history: in-process %d bytes, helper %d bytes", local.Len(), len(got))
	}
}
