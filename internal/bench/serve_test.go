package bench

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestServeLoadAgainstStub(t *testing.T) {
	var hits atomic.Int64 // handlers run on one goroutine per connection
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body struct {
			Rows [][]float64 `json:"rows"`
		}
		if err := json.NewDecoder(r.Body).Decode(&body); err != nil || len(body.Rows) != 1 {
			http.Error(w, "bad body", http.StatusBadRequest)
			return
		}
		hits.Add(1)
		json.NewEncoder(w).Encode(map[string]any{"model": "stub", "predictions": []float64{1}})
	}))
	defer ts.Close()

	res, err := ServeLoad(ServeOptions{
		URL:      ts.URL,
		Queries:  [][]float64{{1, 2}, {3, 4}},
		Workers:  2,
		Duration: 100 * time.Millisecond,
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.Errors != 0 {
		t.Fatalf("result = %+v", res)
	}
	if res.QPS <= 0 || res.P50Ms <= 0 || res.P99Ms < res.P50Ms || res.P90Ms < res.P50Ms {
		t.Errorf("throughput/latency = %+v", res)
	}
	if res.DurationSeconds < 0.09 {
		t.Errorf("duration = %v", res.DurationSeconds)
	}
}

func TestServeLoadCountsErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "down", http.StatusServiceUnavailable)
	}))
	defer ts.Close()
	res, err := ServeLoad(ServeOptions{
		URL:      ts.URL,
		Queries:  [][]float64{{1}},
		Workers:  1,
		Duration: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors == 0 || res.Requests != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestServeLoadEmptyPool(t *testing.T) {
	if _, err := ServeLoad(ServeOptions{URL: "http://127.0.0.1:1"}); err == nil {
		t.Fatal("empty query pool accepted")
	}
}

func TestRenderServe(t *testing.T) {
	points := []ServePoint{
		{Model: "knn", Regime: "out-of-core", Batching: "micro", Workers: 4,
			Result: ServeResult{Requests: 800, QPS: 400, P50Ms: 8, P90Ms: 11, P99Ms: 14}, MeanBatchRows: 3.7},
		{Model: "knn", Regime: "out-of-core", Batching: "single", Workers: 4,
			Result: ServeResult{Requests: 200, QPS: 100, P50Ms: 35, P90Ms: 50, P99Ms: 70}, MeanBatchRows: 1},
	}
	var sb strings.Builder
	if err := RenderServe(&sb, points); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"knn (out-of-core)", "micro", "single", "4.00x", "micro-batching"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestPercentileBench(t *testing.T) {
	cases := []struct {
		sorted []float64
		q      float64
		want   float64
	}{
		{nil, 0.5, 0},
		{[]float64{5}, 0.1, 5},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 1, 4},
	}
	for _, c := range cases {
		if got := percentile(c.sorted, c.q); got != c.want {
			t.Errorf("percentile(%v, %v) = %v, want %v", c.sorted, c.q, got, c.want)
		}
	}
}
