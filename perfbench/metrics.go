package main

import (
	"fmt"
	"math"
	"slices"
	"syscall"
	"time"
)

// metricDef names one reported metric. The two tables below are the
// benchmark's whole vocabulary: BENCHMARK.json lists exactly these names
// (names_test.go enforces it), and a run emits every name of the table its
// mode selects — a metric that does not apply to a workload is emitted as
// 0 and named, with the reason, in the report printed before the result.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd is what a user of silkmothd or the engine pays, measured with
// tracing off and gated by BENCHMARK.json's bounds: memory allocated per
// operation, memory held, and set-up time and memory. Every entry is
// defined, and non-zero, on every workload. Allocated bytes repeat from run
// to run whatever else runs on the host; times do not (see README.md), so
// the throughput and latency figures are reported, ungated, in perLayer,
// with the figures that apply to one workload only. Failures reach the
// result's attempted and failed counts.
var endToEnd = []metricDef{
	{"alloc_bytes_per_op", "bytes", "lower"},
	{"heap_live_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
	{"setup_alloc_mb", "MiB", "lower"},
}

// perLayer is reported by the traced run (-trace 1). Each metric is timed
// or counted from the benchmark's own calls into a layer's public function;
// the program itself carries no benchmark instrumentation.
var perLayer = []metricDef{
	// End-to-end figures measured with tracing off: wall-clock ones, and
	// ones that apply to one workload only.
	{"ops_per_s", "1/s", "higher"},
	{"cpu_us_per_op", "us", "lower"},
	{"read_p50_ms", "ms", "lower"},
	{"read_p99_ms", "ms", "lower"},
	{"setup_wall_s", "s", "lower"},
	{"write_p50_ms", "ms", "lower"},
	{"write_p99_ms", "ms", "lower"},
	{"error_rate", "ratio", "lower"},
	{"disk_bytes_per_user_byte", "ratio", "lower"},
	// internal/server.
	{"server.self_us_p50", "us", "lower"},
	{"server.hit_us_p50", "us", "lower"},
	{"server.cache_hit_ratio", "ratio", "higher"},
	{"server.rejected", "count", "lower"},
	// Package silkmoth, internal/tokens, internal/dataset.
	{"api.search_us_p50", "us", "lower"},
	{"api.tokenize_us_p50", "us", "lower"},
	{"api.residual_us_p50", "us", "lower"},
	{"api.add_us_p50", "us", "lower"},
	{"api.update_us_p50", "us", "lower"},
	{"api.delete_us_p50", "us", "lower"},
	// The four pipeline stages, from the engine's own explain capture.
	{"signature.us_per_query", "us", "lower"},
	{"signature.tokens_per_query", "count", "lower"},
	{"collect.us_per_query", "us", "lower"},
	{"collect.candidates_per_query", "count", "lower"},
	{"refine.us_per_query", "us", "lower"},
	{"refine.survivor_ratio", "ratio", "lower"},
	{"verify.us_per_query", "us", "lower"},
	{"verify.pairs_per_query", "count", "lower"},
	{"verify.useful_ratio", "ratio", "higher"},
	{"core.full_scans", "count", "lower"},
	// Kernels, replayed over the pairs the run matched.
	{"sim.phi_ns_per_cell", "ns", "lower"},
	{"matching.solve_us_per_pair", "us", "lower"},
	{"sim.eds_ns_per_call", "ns", "lower"},
	// Discovery worker fan-out.
	{"discover.busy_ratio", "ratio", "higher"},
	// Compressed postings.
	{"index.posting_cache_hit_ratio", "ratio", "higher"},
	{"index.posting_resident_mb", "MiB", "lower"},
	{"index.posting_decode_errors", "count", "lower"},
	// Durability and maintenance.
	{"wal.append_us_p50", "us", "lower"},
	{"wal.append_us_p99", "us", "lower"},
	{"wal.bytes_per_write", "bytes", "lower"},
	{"wal.recover_ms", "ms", "lower"},
	{"snapshot.ms", "ms", "lower"},
	{"compaction.count", "count", "lower"},
	{"compaction.stall_ms", "ms", "lower"},
	// Go runtime.
	{"allocs_per_op", "count", "lower"},
	{"gc.cycles_per_1k_ops", "count", "lower"},
	// The benchmark's own cost.
	{"harness.request_build_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
}

// writeMetrics are the per-layer metrics of writes, the write-ahead log
// and maintenance; a read-only workload reports them as not applicable.
var writeMetrics = []string{
	"api.add_us_p50", "api.update_us_p50", "api.delete_us_p50",
	"wal.append_us_p50", "wal.append_us_p99", "wal.bytes_per_write", "wal.recover_ms",
	"snapshot.ms", "compaction.stall_ms", "compaction.count",
}

// report collects one run's metrics: values, their sample counts, and the
// reasons for metrics that do not apply.
type report struct {
	defs    []metricDef
	values  map[string]float64
	samples map[string]int
	na      map[string]string
}

func newReport(defs []metricDef) *report {
	return &report{defs: defs, values: map[string]float64{}, samples: map[string]int{}, na: map[string]string{}}
}

// set records a measured value over n samples. Only the names of the
// run's table reach the result; the report prints them all.
func (r *report) set(name string, v float64, n int) {
	r.values[name] = v
	r.samples[name] = n
}

// notApplicable records why name has no value on this workload.
func (r *report) notApplicable(name, why string) {
	r.values[name] = 0
	r.samples[name] = 0
	r.na[name] = why
}

// finish checks that every metric of the table was produced with a finite
// value and returns them in the result's shape.
func (r *report) finish() (map[string]resultMetric, error) {
	out := make(map[string]resultMetric, len(r.defs))
	for _, d := range r.defs {
		v, ok := r.values[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not produced", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.Name)
		}
		out[d.Name] = resultMetric{Value: v, Unit: d.Unit}
	}
	return out, nil
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// cpuTime is the process's user and system CPU time so far. Unlike wall
// time it does not grow while the host runs other guests on this
// machine's processors.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
