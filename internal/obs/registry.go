package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Registry is a namespace of counters, gauges and the fixed per-stage
// timer histograms. Metric lookup takes the registry
// mutex; engines resolve their metric pointers once at construction and
// then touch only lock-free atomics on the hot path.
//
// Every engine worker publishes into the one registry it is given, so
// the exposition methods read that registry's own metrics and a scrape
// sees every running worker. Workers add their deltas, and addition
// commutes, so the totals equal what any interleaving of worker updates
// would have produced.
//
// All methods are safe on a nil *Registry: lookups return nil metrics
// (whose methods are no-ops) and snapshots are empty.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	stages   [NumStages]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
	}
	for i := range r.stages {
		r.stages[i] = &Histogram{}
	}
	return r
}

// Counter returns the named counter, creating it on first use. Names
// may carry a Prometheus label suffix, e.g.
// `mismatches_total{sim="Spike"}`; the text exposition groups such
// series under their family name. Nil registries return a nil counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Stage returns the timer histogram of one taxonomy stage.
func (r *Registry) Stage(s Stage) *Histogram {
	if r == nil || s >= NumStages {
		return nil
	}
	return r.stages[s]
}

// Lap closes one stage of a sampled operation: it records the time
// since t0, less the cost of the clock read every timed interval
// contains, in stage s's timer with weight SampleEvery. It returns a
// clock reading taken after the recording, which opens the operation's
// next stage, so no stage pays for timing another, and the duration it
// recorded, so a caller can keep its own stage sums (also when r is
// nil).
func (r *Registry) Lap(s Stage, t0 time.Time) (time.Time, time.Duration) {
	d := max(time.Since(t0)-clockRead, 0)
	r.Stage(s).ObserveN(d, SampleEvery)
	return time.Now(), d
}

// clockRead is the shortest interval the clock measures between two
// reads: the timing cost each interval carries.
var clockRead = func() time.Duration {
	best := time.Duration(1<<63 - 1)
	for i := 0; i < 100; i++ {
		best = min(best, time.Since(time.Now()))
	}
	return best
}()

// StageSummary is the cumulative view of one stage timer, the payload
// of stage_summary events and of the /debug/vars snapshot.
type StageSummary struct {
	Count   uint64 `json:"count"`
	TotalNS uint64 `json:"total_ns"`
}

// StageSummaries returns the non-empty stage timers, keyed by stage
// name.
func (r *Registry) StageSummaries() map[string]StageSummary {
	if r == nil {
		return nil
	}
	out := map[string]StageSummary{}
	for i, h := range r.stages {
		if n := h.Count(); n > 0 {
			out[Stage(i).String()] = StageSummary{Count: n, TotalNS: h.SumNS()}
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// Snapshot is the JSON view served at /debug/vars.
type Snapshot struct {
	Counters map[string]uint64       `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Stages   map[string]StageSummary `json:"stages,omitempty"`
}

// TakeSnapshot reads the registry's counters, gauges and stage timers
// into a Snapshot.
func (r *Registry) TakeSnapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	s.Counters = map[string]uint64{}
	s.Gauges = map[string]int64{}
	r.mu.Lock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	r.mu.Unlock()
	s.Stages = r.StageSummaries()
	return s
}

// family splits a metric name into its family (the part before any
// label braces) for Prometheus TYPE lines.
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format: counters and gauges first, then the stage-timer
// histogram family keyed by a `stage` label.
// Series are sorted for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	snap := r.TakeSnapshot()

	cnames := make([]string, 0, len(snap.Counters))
	for name := range snap.Counters {
		cnames = append(cnames, name)
	}
	sort.Strings(cnames)
	lastFam := ""
	for _, name := range cnames {
		if f := family(name); f != lastFam {
			if _, err := fmt.Fprintf(w, "# TYPE %s counter\n", f); err != nil {
				return err
			}
			lastFam = f
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, snap.Counters[name]); err != nil {
			return err
		}
	}

	gnames := make([]string, 0, len(snap.Gauges))
	for name := range snap.Gauges {
		gnames = append(gnames, name)
	}
	sort.Strings(gnames)
	lastFam = ""
	for _, name := range gnames {
		if f := family(name); f != lastFam {
			if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n", f); err != nil {
				return err
			}
			lastFam = f
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", name, snap.Gauges[name]); err != nil {
			return err
		}
	}

	// Stage timers as one family with a stage label: one TYPE line
	// before the first active stage, as the text format requires.
	const stageFam = "rvnegtest_stage_duration_seconds"
	typed := false
	for i, h := range r.stages {
		if h.Count() == 0 {
			continue
		}
		if !typed {
			if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", stageFam); err != nil {
				return err
			}
			typed = true
		}
		labels := `stage="` + Stage(i).String() + `"`
		if err := writeHistogram(w, stageFam, labels, h); err != nil {
			return err
		}
	}
	return nil
}

// writeHistogram renders the series of one labelled histogram of family
// fam in Prometheus text format with seconds-valued buckets; the
// family's TYPE line is the caller's.
func writeHistogram(w io.Writer, fam, labels string, h *Histogram) error {
	cum := uint64(0)
	for i, bound := range BucketBounds {
		cum += h.Bucket(i)
		le := strconv.FormatFloat(float64(bound)/1e9, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"%s\"} %d\n", fam, labels, le, cum); err != nil {
			return err
		}
	}
	cum += h.Bucket(NumBuckets - 1)
	if _, err := fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", fam, labels, cum); err != nil {
		return err
	}
	sum := strconv.FormatFloat(float64(h.SumNS())/1e9, 'g', -1, 64)
	_, err := fmt.Fprintf(w, "%s_sum{%s} %s\n%s_count{%s} %d\n", fam, labels, sum, fam, labels, h.Count())
	return err
}
