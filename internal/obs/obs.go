// Package obs is M3's zero-dependency observability layer: spans,
// unified metrics and /proc collection for *real* runs — the
// counterpart of the simulated instrumentation in internal/vm, whose
// timelines internal/bench reads as the same Utilization report. The
// paper's core methodology is measurement (§3.1: out-of-core M3 is
// I/O bound — disk 100% busy, CPU ~13%); this package makes the same
// observations cheap to take on live engines, trainers and servers.
//
// Three surfaces:
//
//   - Tracing (trace.go): a process-wide tracer behind one atomic
//     pointer. When no tracer is installed every hook is a single
//     atomic load plus a nil check — cheap enough to leave in the
//     per-block hot path of internal/exec. When installed
//     (StartTrace, or m3train/m3bench/m3serve -trace), spans record a
//     Fit → stage → scan → per-worker block hierarchy that exports as
//     Chrome trace-event JSON (WriteJSON) and opens directly in
//     Perfetto, mirroring the per-worker CPU tracks vm.Timeline draws
//     for simulated runs.
//
//   - Metrics (metrics.go): Registry aggregates counters from any
//     source — store bytes touched/resident, engine scratch
//     allocs/releases, per-iteration optimizer progress, serving
//     counters — behind one Gather/Snapshot/diff surface with
//     Prometheus text exposition (WritePrometheus). The process-wide
//     Default registry carries fit progress and /proc counters;
//     subsystem registries (serve.Server) Include it.
//
//   - /proc collection (proc.go): best-effort real counters on Linux —
//     process CPU seconds, read bytes and major faults
//     (/proc/self/stat, /proc/self/io) plus per-device disk busy time
//     (/proc/diskstats) — so a real out-of-core run can reproduce the
//     paper's §3.1 utilization profile, not just a simulated one.
package obs
