package main

import (
	"fmt"
	"io"
	"sort"

	"m3/internal/serve"
)

// metricDef names one reported number. The two lists below are the
// benchmark's vocabulary; BENCHMARK.json repeats them with direction
// and bound, and bench_test.go fails when the two drift apart.
type metricDef struct{ name, unit string }

// endToEnd is what a user of the system waits for or pays. Every
// workload reports every entry (README.md says which code path each
// workload measures it through), with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"logreg_fit_s", "s"},
	{"kmeans_fit_s", "s"},
	{"pipeline_fit_s", "s"},
	{"fit_alloc_mb", "MB"},
	{"predict_logit_p50_ms", "ms"},
	{"predict_logit_p90_ms", "ms"},
	{"predict_knn_p50_ms", "ms"},
	{"predict_knn_p90_ms", "ms"},
	{"predict_logit_rows_per_s", "1/s"},
	{"predict_knn_rows_per_s", "1/s"},
}

// perLayer is the ladder of the traced run, named <module>.<metric>.
// A workload that does not exercise a module reports 0 for it.
var perLayer = []metricDef{
	{"dataset.readall_cold_gbps", "GB/s"},
	{"dataset.readall_warm_gbps", "GB/s"},
	{"dataset.write_mbps", "MB/s"},
	{"mmap.fault_cold_gbps", "GB/s"},
	{"mmap.fault_warm_gbps", "GB/s"},
	{"mmap.evict_resident_frac", "frac"},
	{"mmap.evict_ms", "ms"},
	{"exec.blocks", "count"},
	{"exec.noop_scan_ms", "ms"},
	{"exec.sum_warm_gbps", "GB/s"},
	{"exec.sum_cold_gbps", "GB/s"},
	{"exec.cold_over_fault_frac", "frac"},
	{"exec.workers_speedup", "x"},
	{"blas.dot_axpy_gbps", "GB/s"},
	{"blas.nearest_row_gbps", "GB/s"},
	{"blas.sqdist_gbps", "GB/s"},
	{"blas.gemm_gflops", "GFLOP/s"},
	{"logreg.evals", "count"},
	{"logreg.eval_ms", "ms"},
	{"logreg.eval_gbps", "GB/s"},
	{"logreg.eval_over_blas_frac", "frac"},
	{"optimize.lbfgs_self_ms", "ms"},
	{"kmeans.passes", "count"},
	{"kmeans.seed_pass_ms", "ms"},
	{"kmeans.assign_pass_ms", "ms"},
	{"kmeans.driver_self_ms", "ms"},
	{"core.open_mmap_ms", "ms"},
	{"core.open_heap_s", "s"},
	{"core.fused_sum_gbps", "GB/s"},
	{"core.fused_over_plain_frac", "frac"},
	{"core.materialize_gbps", "GB/s"},
	{"core.scratch_allocs", "count"},
	{"core.scratch_mb", "MB"},
	{"pipeline.scaler_fit_ms", "ms"},
	{"pipeline.minmax_fit_ms", "ms"},
	{"modelio.save_ms", "ms"},
	{"modelio.load_ms", "ms"},
	{"dist.rounds", "count"},
	{"dist.bytes_per_round", "B"},
	{"dist.straggler_wait_ms", "ms"},
	{"dist.round_ms", "ms"},
	{"dist.shard_scan_ms", "ms"},
	{"dist.overhead_frac", "frac"},
	{"dist.over_local_frac", "frac"},
	{"serve.json_decode_us", "us"},
	{"serve.predict_matrix_us.logit", "us"},
	{"serve.predict_matrix_us.knn", "us"},
	{"serve.handler_us.logit", "us"},
	{"serve.handler_us.knn", "us"},
	{"serve.http_overhead_us", "us"},
	{"serve.mean_batch_rows", "count"},
	{"serve.rejected_429", "count"},
	{"serve.send_lag_ms", "ms"},
	{"knn.search_ms_q1", "ms"},
	{"knn.search_ms_q8", "ms"},
	{"knn.search_ms_q64", "ms"},
	{"knn.batch_amortization", "x"},
	{"trace.overhead_frac", "frac"},
}

// report collects one run's numbers. samples is printed beside every
// value so a reader can see how much data stands behind a median.
type report struct {
	value   map[string]float64
	samples map[string]int
	// attempted and failed count operations: fits (error, or saved
	// bytes differing from the reference) and prediction requests
	// (non-200, or predictions differing from the expected ones).
	attempted, failed int
}

func newReport() *report {
	return &report{value: map[string]float64{}, samples: map[string]int{}}
}

func (r *report) set(name string, v float64, n int) {
	r.value[name] = v
	r.samples[name] = n
}

// op counts one checked operation.
func (r *report) op(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// print writes the declared metrics that were measured, in declared
// order, one per line.
func (r *report) print(w io.Writer, defs []metricDef) {
	for _, d := range defs {
		if v, ok := r.value[d.name]; ok {
			fmt.Fprintf(w, "%-32s %14.6g %-8s n=%d\n", d.name, v, d.unit, r.samples[d.name])
		}
	}
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// calm is the lower quartile: the estimator of every time this
// benchmark reports. Repeating the same work takes the same time
// unless something gets in the way, and what gets in the way on a
// shared 2-CPU sandbox (other tenants of the host, the flusher, a busy
// disk under a cold fit or a scratch write-back) only ever adds time,
// to anything from a tenth to most of the repetitions. The median
// follows those additions (across ten seeds it spread by 49 % for
// train_cold's logreg fit and 32 % for train_warm's pipeline fit); the
// minimum ignores them but picks out lucky repetitions when the host
// is evenly busy (30 % for train_dist's logreg fit); the lower quartile
// stayed within 24 % in every sizing run. README.md has the numbers.
func calm(xs []float64) float64 { return quantile(xs, 0.25) }

// calmSum is the estimator of a fit's time: the sum, over the fit's
// segments, of the shortest time any repetition took for that segment,
// and the number of repetitions behind it. A fit runs the same
// computation in every repetition, segment by segment, and the host
// only ever adds time; it adds it to whole stretches of seconds, so
// that most of a run's 0.1 to 0.3 s fits are slowed somewhere, while
// segments of 5 to 30 ms are fast in some repetition or other. In ten
// runs on a busy host the lower quartile of whole fits spread by 4 to
// 9 %, their minimum by 3 to 7 %, this by 3 to 6 %. Repetitions are
// compared only with those that have as many segments as the last.
func calmSum(reps [][]float64) (sum float64, n int) {
	if len(reps) == 0 {
		return 0, 0
	}
	best := append([]float64(nil), reps[len(reps)-1]...)
	for _, segs := range reps {
		if len(segs) != len(best) {
			continue
		}
		n++
		for k, s := range segs {
			best[k] = min(best[k], s)
		}
	}
	for _, s := range best {
		sum += s
	}
	return sum, n
}

// quantile sorts a copy, so callers keep their sample order.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return serve.Percentile(s, q)
}
