package m3

// End-to-end tests of the command-line tools: build each binary once
// and drive it the way a user would.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

var (
	buildOnce sync.Once
	binDir    string
	buildErr  error
)

// buildCLIs compiles the cmd binaries into a shared temp dir.
func buildCLIs(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		binDir, buildErr = os.MkdirTemp("", "m3-bin")
		if buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", binDir, "./cmd/...")
		cmd.Dir = "."
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = err
			t.Logf("go build output: %s", out)
		}
	})
	if buildErr != nil {
		t.Skipf("cannot build CLIs: %v", buildErr)
	}
	return binDir
}

func runCLI(t *testing.T, name string, args ...string) string {
	t.Helper()
	bin := filepath.Join(buildCLIs(t), name)
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return string(out)
}

func TestCLIGenerateInspectTrain(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	ds := filepath.Join(dir, "digits.m3")

	out := runCLI(t, "infimnist-gen", "-out", ds, "-images", "120", "-seed", "2")
	if !strings.Contains(out, "done in") {
		t.Errorf("gen output: %s", out)
	}

	out = runCLI(t, "m3inspect", "info", "-data", ds)
	for _, want := range []string{"rows:      120", "cols:      784", "labels:    true"} {
		if !strings.Contains(out, want) {
			t.Errorf("info output missing %q:\n%s", want, out)
		}
	}

	out = runCLI(t, "m3inspect", "verify", "-data", ds)
	if !strings.Contains(out, "checksum OK") {
		t.Errorf("verify output: %s", out)
	}

	model := filepath.Join(dir, "lr.model")
	out = runCLI(t, "m3train", "-data", ds, "-algo", "logreg", "-iters", "10", "-save", model)
	if !strings.Contains(out, "mapped=true") || !strings.Contains(out, "model saved") {
		t.Errorf("train output: %s", out)
	}
	if _, err := os.Stat(model); err != nil {
		t.Errorf("model file missing: %v", err)
	}

	// Saved models are inspectable.
	out = runCLI(t, "m3inspect", "model", "-data", model)
	for _, want := range []string{"kind: logistic", "784 features"} {
		if !strings.Contains(out, want) {
			t.Errorf("model output missing %q:\n%s", want, out)
		}
	}

	// Both backends work from the CLI.
	out = runCLI(t, "m3train", "-data", ds, "-algo", "kmeans", "-k", "4", "-backend", "heap")
	if !strings.Contains(out, "mapped=false") || !strings.Contains(out, "kmeans:") {
		t.Errorf("heap kmeans output: %s", out)
	}
}

func TestCLIPipelineTrainInspect(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	ds := filepath.Join(dir, "digits.m3")
	runCLI(t, "infimnist-gen", "-out", ds, "-images", "120", "-seed", "2")

	// -scale and -pca assemble a Pipeline around the estimator; the
	// stage summary reports where each intermediate materialized.
	model := filepath.Join(dir, "pipe.model")
	out := runCLI(t, "m3train", "-data", ds, "-algo", "logreg", "-iters", "8",
		"-scale", "standard", "-pca", "8", "-save", model)
	for _, want := range []string{
		"pipeline: 2 preprocessing stages",
		"standard scaler over 784 features",
		"pca 784 -> 8 components",
		"train accuracy",
		"model saved",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pipeline train output missing %q:\n%s", want, out)
		}
	}

	// The saved KindPipeline envelope prints per-stage summaries.
	out = runCLI(t, "m3inspect", "model", "-data", model)
	for _, want := range []string{
		"kind: pipeline",
		"pipeline: 3 stages",
		"stage 0: standard scaler: 784 features",
		"stage 1: pca: 8 components over 784 features",
		"stage 2: logistic: 8 features",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("pipeline model output missing %q:\n%s", want, out)
		}
	}
}

func TestCLIExportImportRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	ds := filepath.Join(dir, "d.m3")
	runCLI(t, "infimnist-gen", "-out", ds, "-images", "10")

	csv := filepath.Join(dir, "d.csv")
	runCLI(t, "m3inspect", "export", "-data", ds, "-format", "csv", "-out", csv)
	back := filepath.Join(dir, "back.m3")
	runCLI(t, "m3inspect", "import", "-in", csv, "-data", back, "-format", "csv")
	out := runCLI(t, "m3inspect", "info", "-data", back)
	if !strings.Contains(out, "rows:      10") {
		t.Errorf("roundtrip info: %s", out)
	}
}

func TestCLIBenchSingleExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	out := runCLI(t, "m3bench", "-exp", "iobound", "-rows", "64")
	if !strings.Contains(out, "I/O bound: true") {
		t.Errorf("m3bench iobound output: %s", out)
	}

	// The retired real-hardware experiments are unknown names now, and
	// the usage lists exactly the simulated ones.
	const usage = "experiment: fig1a, fig1b, iobound, access, predict, disks, energy, locality, multicore, all"
	for _, retired := range []string{"serve", "dist"} {
		cmd := exec.Command(filepath.Join(buildCLIs(t), "m3bench"), "-exp", retired)
		out, err := cmd.CombinedOutput()
		if code := cmd.ProcessState.ExitCode(); err == nil || code != 2 {
			t.Errorf("m3bench -exp %s: exit %d (%v), want 2", retired, code, err)
		}
		for _, want := range []string{"unknown experiment", usage} {
			if !strings.Contains(string(out), want) {
				t.Errorf("m3bench -exp %s output missing %q:\n%s", retired, want, out)
			}
		}
	}
}

// TestCLITrainTraceAndProfile: an out-of-core m3train -trace run
// writes valid Chrome trace-event JSON with per-worker block spans
// riding under the fit span, and -profile writes a non-empty CPU
// profile.
func TestCLITrainTraceAndProfile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	ds := filepath.Join(dir, "digits.m3")
	runCLI(t, "infimnist-gen", "-out", ds, "-images", "120", "-seed", "2")

	tracePath := filepath.Join(dir, "trace.json")
	profPath := filepath.Join(dir, "cpu.pprof")
	out := runCLI(t, "m3train", "-data", ds, "-algo", "logreg", "-iters", "8",
		"-scale", "standard", "-trace", tracePath, "-profile", profPath)
	if !strings.Contains(out, "mapped=true") {
		t.Errorf("train output: %s", out)
	}
	if !strings.Contains(out, "trace written to "+tracePath) {
		t.Errorf("train output missing trace confirmation:\n%s", out)
	}

	raw, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Tid  int64          `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if trace.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want ms", trace.DisplayTimeUnit)
	}
	var fitSpans, scanSpans, workerBlocks int
	for _, e := range trace.TraceEvents {
		switch {
		case e.Cat == "fit" && e.Ph == "X":
			fitSpans++
		case e.Cat == "scan" && e.Ph == "X":
			scanSpans++
		case e.Cat == "block" && e.Ph == "X" && e.Tid >= 1:
			workerBlocks++
		}
	}
	if fitSpans != 1 {
		t.Errorf("fit spans = %d, want 1", fitSpans)
	}
	if scanSpans == 0 {
		t.Error("no scan spans in trace")
	}
	if workerBlocks == 0 {
		t.Error("no per-worker block events (tid >= 1) in trace")
	}

	if fi, err := os.Stat(profPath); err != nil {
		t.Errorf("cpu profile missing: %v", err)
	} else if fi.Size() == 0 {
		t.Error("cpu profile is empty")
	}
}

func TestCLIServeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	ds := filepath.Join(dir, "digits.m3")
	runCLI(t, "infimnist-gen", "-out", ds, "-images", "120", "-seed", "2")
	model := filepath.Join(dir, "pipe.model")
	runCLI(t, "m3train", "-data", ds, "-algo", "logreg", "-iters", "8",
		"-scale", "standard", "-pca", "8", "-save", model)

	// Start the daemon on an ephemeral port and read the resolved
	// address off its log.
	bin := filepath.Join(buildCLIs(t), "m3serve")
	srv := exec.Command(bin, "-listen", "127.0.0.1:0",
		"-model", "digits="+model, "-knn", "nn="+ds+":3:10", "-batch", "8", "-deadline", "2ms")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	var addr string
	logs := make(chan string, 1)
	go func() {
		var lines []string
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			line := sc.Text()
			lines = append(lines, line)
			if _, rest, ok := strings.Cut(line, "listening on "); ok && addr == "" {
				addr = strings.Fields(rest)[0]
				logs <- addr
			}
		}
		logs <- strings.Join(lines, "\n")
	}()
	select {
	case <-logs:
	case <-time.After(30 * time.Second):
		t.Fatal("m3serve never logged its listen address")
	}
	base := "http://" + addr

	var health struct {
		Status string `json:"status"`
		Models int    `json:"models"`
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	json.NewDecoder(resp.Body).Decode(&health)
	resp.Body.Close()
	if health.Status != "ok" || health.Models != 2 {
		t.Fatalf("healthz = %+v", health)
	}

	// Predict against both the saved pipeline and the mmap-backed k-NN.
	row := make([]float64, 784)
	body, _ := json.Marshal(map[string][][]float64{"rows": {row, row}})
	for _, name := range []string{"digits", "nn"} {
		resp, err := http.Post(base+"/models/"+name+"/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var out struct {
			Model       string    `json:"model"`
			Predictions []float64 `json:"predictions"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || err != nil || out.Model != name || len(out.Predictions) != 2 {
			t.Fatalf("%s predict: status %d err %v out %+v", name, resp.StatusCode, err, out)
		}
	}

	// /metrics?format=json reports both models, including the k-NN
	// store counters.
	resp, err = http.Get(base + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Models map[string]struct {
			Requests int64            `json:"requests"`
			Store    map[string]int64 `json:"store"`
		} `json:"models"`
	}
	json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if m := metrics.Models["digits"]; m.Requests != 1 {
		t.Errorf("digits metrics = %+v", m)
	}
	if m := metrics.Models["nn"]; m.Requests != 1 || m.Store["bytes_touched"] == 0 {
		t.Errorf("nn metrics = %+v", m)
	}

	// Plain /metrics is Prometheus text exposition with the serve
	// counters and the mmap store gauges.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	promBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("/metrics Content-Type = %q, want text exposition", ct)
	}
	prom := string(promBody)
	for _, want := range []string{
		"# TYPE m3_serve_requests_total counter",
		`m3_serve_requests_total{model="digits"} 1`,
		"# TYPE m3_serve_batch_rows histogram",
		`m3_store_bytes_touched{model="nn"}`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("Prometheus /metrics missing %q", want)
		}
	}

	// The profiling endpoints ride on the daemon's mux.
	resp, err = http.Get(base + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d, want 200", resp.StatusCode)
	}

	// SIGTERM drains and exits cleanly. Read stderr to EOF *before*
	// calling Wait: Wait closes the pipe, and racing it against the
	// scanner goroutine can drop the final "drained" line.
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var rest string
	select {
	case rest = <-logs:
	case <-time.After(30 * time.Second):
		t.Fatal("m3serve stderr never closed after SIGTERM")
	}
	if !strings.Contains(rest, "drained") {
		t.Errorf("shutdown log missing \"drained\":\n%s", rest)
	}
	if err := srv.Wait(); err != nil {
		t.Fatalf("m3serve exit: %v", err)
	}
}

func TestCLIBenchMultiCore(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// -experiment is the documented alias of -exp.
	out := runCLI(t, "m3bench", "-experiment", "multicore", "-rows", "64", "-passes", "2")
	for _, want := range []string{"workers", "speedup", "out-of-core", "in-RAM"} {
		if !strings.Contains(out, want) {
			t.Errorf("m3bench multicore output missing %q:\n%s", want, out)
		}
	}
}
