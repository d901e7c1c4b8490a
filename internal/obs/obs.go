// Package obs is the campaign observability layer: dependency-free
// (standard library only) counters, gauges, a per-stage taxonomy of
// fixed-bucket latency histograms, a structured NDJSON event
// stream for campaign lifecycle events, and an HTTP exposition surface
// (Prometheus text /metrics, JSON /debug/vars, net/http/pprof).
//
// Design constraints, shared with the engines that embed it:
//
//   - One set of counters. The engines keep the only counts and publish
//     them: the fuzzer every SampleEvery executions and whenever a run
//     returns, a checkpoint is written or telemetry is flushed, so its
//     registry counters lag by fewer than SampleEvery executions per
//     worker; the compliance engine as its shards finish and on every
//     merged row.
//
//   - One registry level. Every worker of every engine adds into the
//     registry it was given, gauges included, so a scrape of that
//     registry sees every running worker and its values are sums over
//     them.
//
//   - Sampled stage timing. Engines time one operation in SampleEvery,
//     chosen by execution count or case index, never by an RNG, with
//     weight SampleEvery (Histogram.ObserveN), so a stage's count and
//     sum estimate every operation.
//
//   - Safe when disabled. Every type is safe to use through a nil
//     pointer; methods on a nil receiver are no-ops reading as zero.
//
//   - Lock-free on the hot path. Counters, gauges and histogram buckets
//     are atomics; the only mutex in Registry guards name->metric map
//     growth (amortized to registration time — engines resolve their
//     metric pointers once, not per event).
//
//   - Out of the determinism boundary. Telemetry state never enters
//     checkpoints, Stats.Deterministic() views, or any engine decision:
//     with telemetry on or off, campaign outputs are byte-identical.
package obs

import "sync/atomic"

// SampleEvery is the period of stage-timer sampling and of the fuzzer's
// counter publishing. A power of two, so the schedule test is a mask.
const SampleEvery = 256

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; all methods are safe on a nil receiver (no-ops that
// read as zero).
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value (corpus size, coverage bits).
// The zero value is ready to use; all methods are safe on a nil
// receiver.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the value by n (may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
