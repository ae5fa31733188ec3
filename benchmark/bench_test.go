package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// toySizes keeps the whole suite to a few seconds; the numbers mean
// nothing, the shape of the output is what is checked.
var toySizes = sizes{
	trainRows: 2048, refRows: 512, queryRows: 64,
	setupReps: 1, rounds: 2,
	rate: map[string]float64{"logit": 400, "knn": 200},
}

func toyConfig(t *testing.T, workload string, trace bool) config {
	return config{workload: workload, seed: 7, seconds: 0.5, trace: trace, dir: t.TempDir(), sz: toySizes}
}

func names(defs []metricDef) map[string]string {
	out := map[string]string{}
	for _, d := range defs {
		out[d.name] = d.unit
	}
	return out
}

// TestDeclaredMatchesCode holds BENCHMARK.json and the metric lists in
// metrics.go to each other and to the limits of the driver's contract.
func TestDeclaredMatchesCode(t *testing.T) {
	decl, err := readDeclared(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(decl.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(decl.Workloads), len(workloads))
	}
	for i, w := range decl.Workloads {
		if w.Name != workloads[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json and %q in the code", i, w.Name, workloads[i])
		}
	}
	if len(decl.EndToEnd) > 16 || len(decl.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics exceed the limits of 16 and 128", len(decl.EndToEnd), len(decl.PerLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u string, want map[string]string) {
		if !name.MatchString(n) || !unit.MatchString(u) {
			t.Errorf("%s metric %q with unit %q is outside the allowed characters", kind, n, u)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
		if got, ok := want[n]; !ok || got != u {
			t.Errorf("%s metric %q (%s) is not declared with that unit in metrics.go", kind, n, u)
		}
	}
	for _, w := range workloads {
		seen[w] = true
	}
	for _, m := range decl.EndToEnd {
		check("end-to-end", m.Name, m.Unit, names(endToEnd))
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside [0, 0.25]", m.Name, m.Bound)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better is %q", m.Name, m.Better)
		}
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower") {
			t.Errorf("setup_s must be in s and better lower")
		}
	}
	for _, m := range decl.PerLayer {
		check("per-layer", m.Name, m.Unit, names(perLayer))
	}
	if len(decl.EndToEnd) != len(endToEnd) || len(decl.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json declares %d+%d metrics, metrics.go %d+%d",
			len(decl.EndToEnd), len(decl.PerLayer), len(endToEnd), len(perLayer))
	}
}

// result is the driver's view of a run's last line.
type result struct {
	Correct   *bool `json:"correct"`
	Attempted *int  `json:"attempted"`
	Failed    *int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

func checkResult(t *testing.T, rep *report, defs []metricDef, nonZero bool) {
	t.Helper()
	var buf bytes.Buffer
	if err := rep.writeResult(&buf, defs); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(buf.Bytes(), []byte("\n")); n != 1 {
		t.Fatalf("result is %d lines, want one", n)
	}
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	var res result
	if err := dec.Decode(&res); err != nil {
		t.Fatalf("result is not the driver's JSON object: %v", err)
	}
	if res.Correct == nil || res.Attempted == nil || res.Failed == nil {
		t.Fatal("result lacks correct, attempted or failed")
	}
	if !*res.Correct || *res.Failed != 0 || *res.Attempted < 1 {
		t.Errorf("correct %v, attempted %d, failed %d", *res.Correct, *res.Attempted, *res.Failed)
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("result has %d metrics, want %d", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.name]
		if !ok || m.Value == nil || m.Unit != d.unit {
			t.Errorf("metric %s (%s) is missing or has another unit", d.name, d.unit)
			continue
		}
		if _, measured := rep.value[d.name]; nonZero && (!measured || *m.Value <= 0) {
			t.Errorf("end-to-end metric %s = %v, want a measured positive value", d.name, *m.Value)
		}
	}
}

func checkNoData(t *testing.T, dir string) {
	t.Helper()
	left, err := os.ReadDir(filepath.Join(dir, "data"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("run left %s behind", e.Name())
	}
}

// TestWorkloads runs every workload untraced and traced at toy sizes.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w, func(t *testing.T) {
			cfg := toyConfig(t, w, false)
			rep, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, rep, endToEnd, true)
			checkNoData(t, cfg.dir)

			// tracedRun fails when a span is left open.
			cfg.trace = true
			if rep, err = run(context.Background(), cfg); err != nil {
				t.Fatal(err)
			}
			checkResult(t, rep, perLayer, false)
			checkNoData(t, cfg.dir)
			raw, err := os.ReadFile(filepath.Join(cfg.dir, "trace", w+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &trace); err != nil || len(trace.TraceEvents) == 0 {
				t.Errorf("trace file does not load as Chrome trace JSON: %v (%d events)", err, len(trace.TraceEvents))
			}
		})
	}
}

// TestOracleNoticesCorruption: one changed byte of a reference hash or
// one changed expected prediction must show up as failed operations.
func TestOracleNoticesCorruption(t *testing.T) {
	ctx := context.Background()
	in, err := setUp(ctx, t.TempDir(), 7, toySizes)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := newTrainer(ctx, in, in.train, warm)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.close()
	rep := newReport()
	tr.repeat(ctx, fitNames, 0, 1, rep, &trainSamples{})
	if rep.failed != 0 {
		t.Fatalf("%d of %d fits failed before any corruption", rep.failed, rep.attempted)
	}
	hash := in.train.ref["kmeans"]
	hash[0] ^= 1
	in.train.ref["kmeans"] = hash
	tr.repeat(ctx, fitNames, 0, 1, rep, &trainSamples{})
	if rep.failed == 0 {
		t.Error("a corrupted reference model hash went unnoticed")
	}

	srv, err := startServer(ctx, in)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.close()
	rep = newReport()
	l, _ := newLoad(in, srv, false, rep)
	l.round("logit", 100*time.Millisecond)
	if rep.failed != 0 {
		t.Fatalf("%d of %d requests failed before any corruption", rep.failed, rep.attempted)
	}
	in.expect["logit"][0]++
	l.round("logit", 100*time.Millisecond)
	if rep.failed == 0 {
		t.Error("a corrupted expected prediction went unnoticed")
	}
}
