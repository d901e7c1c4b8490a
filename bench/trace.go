package bench

import (
	"math"
	"math/bits"
	"time"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/sim"
)

// tracer aggregates the spans the benchmark records around its calls into
// the layers. It keeps per-name aggregates only (count, total, self time
// and a log-linear histogram for percentiles), so recording allocates
// nothing after a span name's first use. Not safe for concurrent use:
// traced runs drive the layers from one goroutine.
type tracer struct {
	spans map[string]*span
	// child accumulates the time recorded by spans nested in the span
	// the caller is currently timing; the caller resets it before the
	// call and subtracts it afterwards to get self time.
	child time.Duration
}

type span struct {
	count       int
	total, self time.Duration
	hist        [histBuckets]uint32
}

func newTracer() *tracer { return &tracer{spans: map[string]*span{}} }

// record adds one span of duration d, of which self was not covered by
// child spans.
func (t *tracer) record(name string, d, self time.Duration) {
	s := t.spans[name]
	if s == nil {
		s = &span{}
		t.spans[name] = s
	}
	s.count++
	s.total += d
	s.self += self
	s.hist[bucketOf(uint64(max(d, 0)))]++
}

// leaf records a span with no children and charges it to the enclosing
// span's child time.
func (t *tracer) leaf(name string, d time.Duration) {
	t.record(name, d, d)
	t.child += d
}

// SpanSummary is the exported aggregate of one span name.
type SpanSummary struct {
	Count   int     `json:"count"`
	TotalNS int64   `json:"total_ns"`
	SelfNS  int64   `json:"self_ns"`
	MeanNS  float64 `json:"mean_ns"`
	P50NS   float64 `json:"p50_ns"`
	P99NS   float64 `json:"p99_ns"`
}

func (t *tracer) summary(name string) SpanSummary {
	s := t.spans[name]
	if s == nil || s.count == 0 {
		return SpanSummary{}
	}
	return SpanSummary{
		Count:   s.count,
		TotalNS: s.total.Nanoseconds(),
		SelfNS:  s.self.Nanoseconds(),
		MeanNS:  float64(s.total.Nanoseconds()) / float64(s.count),
		P50NS:   s.quantile(0.50),
		P99NS:   s.quantile(0.99),
	}
}

func (t *tracer) summaries() map[string]SpanSummary {
	out := make(map[string]SpanSummary, len(t.spans))
	for name := range t.spans {
		out[name] = t.summary(name)
	}
	return out
}

// quantile returns the midpoint of the histogram bucket holding the q-th
// sample (relative error below 2%).
func (s *span) quantile(q float64) float64 {
	rank := uint64(math.Ceil(q * float64(s.count)))
	var seen uint64
	for i, n := range s.hist {
		seen += uint64(n)
		if seen >= rank && n > 0 {
			lo, hi := bucketLow(i), bucketLow(i+1)
			return float64(lo+hi) / 2
		}
	}
	return 0
}

// The histogram is exact below 64 ns and keeps 32 buckets per power of
// two above, up to 2^58 ns.
const histBuckets = 64 + 52*32

func bucketOf(v uint64) int {
	if v < 64 {
		return int(v)
	}
	e := bits.Len64(v) - 6 // v>>e lies in [32, 64)
	return min(64+(e-1)*32+int(v>>e)-32, histBuckets-1)
}

func bucketLow(i int) uint64 {
	if i < 64 {
		return uint64(i)
	}
	e := (i-64)/32 + 1
	return uint64((i-64)%32+32) << e
}

// timedSim is the timing decorator the traced runs install through the
// layers' simulator seams (fuzz.Config.NewTarget, compliance.Runner.NewSim):
// it records a leaf span around every run and hands every hooked run's
// input to the sampler.
type timedSim struct {
	inner  sim.HookedSim
	tr     *tracer
	sample *sampler
}

func (s *timedSim) Run(bs []byte) sim.Outcome {
	t0 := time.Now()
	out := s.inner.Run(bs)
	s.tr.leaf("sim.run", time.Since(t0))
	return out
}

func (s *timedSim) RunHooked(bs []byte, hook exec.Hook) sim.Outcome {
	s.sample.add(bs)
	t0 := time.Now()
	out := s.inner.RunHooked(bs, hook)
	s.tr.leaf("sim.run_hooked", time.Since(t0))
	return out
}

// sampler keeps a copy of every 8th input it is shown, up to limit: the
// inputs the microbenchmarks replay.
type sampler struct {
	seen   int
	limit  int
	inputs [][]byte
}

func (s *sampler) add(bs []byte) {
	if s == nil {
		return
	}
	if s.seen%8 == 0 && len(s.inputs) < s.limit {
		s.inputs = append(s.inputs, append([]byte(nil), bs...))
	}
	s.seen++
}
