package bench

import (
	"math"
	"sort"
)

// Def is one metric of the benchmark's ledger: its name, unit, which
// direction is better, and (end-to-end metrics only) the share of the
// parent commit's median by which it may worsen before a change counts as
// a regression. BENCHMARK.json at the repository root lists the same
// definitions; a test keeps the two in step.
type Def struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// EndToEnd are the metrics an untraced run reports for every workload.
var EndToEnd = []Def{
	{Name: "ref_execs_per_s", Unit: "execs/s", Better: "higher", Bound: 0.24},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.1},
}

// PerLayer are the per-layer metrics a traced run reports for every
// workload. Workload-specific layer metrics (spans around Fuzzer.Step,
// Submit/Wait, ...) are reported alongside them but are not part of this
// common set, because every workload must emit every listed metric.
var PerLayer = []Def{
	{Name: "sim.run.ns", Unit: "ns", Better: "lower"},
	{Name: "sim.run.allocs", Unit: "count", Better: "lower"},
	{Name: "sim.run.bytes", Unit: "B", Better: "lower"},
	{Name: "sim.run.ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "exec.hook_dispatch.ns", Unit: "ns", Better: "lower"},
	{Name: "filter.check.ns", Unit: "ns", Better: "lower"},
	{Name: "filter.check.allocs", Unit: "count", Better: "lower"},
	{Name: "filter.check.bytes", Unit: "B", Better: "lower"},
	{Name: "coverage.hook.ns", Unit: "ns", Better: "lower"},
	{Name: "coverage.hook.allocs", Unit: "count", Better: "lower"},
	{Name: "coverage.merge.ns", Unit: "ns", Better: "lower"},
	{Name: "sig.compare.ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "test_cases", Unit: "cases", Better: "higher"},
	{Name: "cov_bits", Unit: "bits", Better: "higher"},
}

// Ledger returns the metrics a run in the given mode reports on its
// result line.
func Ledger(trace bool) []Def {
	if trace {
		return PerLayer
	}
	return EndToEnd
}

// Stat is one reported metric: the median over the run's samples, their
// extremes and count.
type Stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

// statOf summarizes samples as their median.
func statOf(unit string, xs []float64) Stat {
	if len(xs) == 0 {
		return Stat{Unit: unit}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return Stat{Value: median(s), Unit: unit, Min: s[0], Max: s[len(s)-1], N: len(s)}
}

// one wraps a single measurement.
func one(unit string, v float64) Stat { return statOf(unit, []float64{v}) }

// median of sorted values, as Python's statistics.median.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the quartiles of xs with the method of Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method), so the
// spreads this package reports match the ones computed from its results.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}
