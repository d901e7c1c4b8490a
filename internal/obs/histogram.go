package obs

import (
	"strconv"
	"sync/atomic"
	"time"
)

// Stage names one phase of campaign work in the per-stage timer
// taxonomy. Engines observe wall-clock durations into the stage's
// histogram; reports and /metrics break campaign time down by stage.
type Stage uint8

const (
	// StageFilter is the static filter check on a candidate bytestream.
	StageFilter Stage = iota
	// StageMutate is candidate generation (generic or instruction-aware
	// mutation, or seed replay).
	StageMutate
	// StageExecute is a simulator run (fuzz target, reference or SUT).
	StageExecute
	// StageCoverageEval is coverage novelty evaluation (MergeNew and
	// corpus bookkeeping).
	StageCoverageEval
	// StageSignatureCompare is the Phase B signature diff and mismatch
	// classification.
	StageSignatureCompare
	// StageCheckpointWrite is campaign state persistence.
	StageCheckpointWrite
	// NumStages bounds the taxonomy.
	NumStages
)

var stageNames = [NumStages]string{
	"filter", "mutate", "execute", "coverage-eval",
	"signature-compare", "checkpoint-write",
}

func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "stage-" + strconv.Itoa(int(s))
}

// StageByName resolves a stage name rendered by Stage.String (report
// tooling reading event files); ok is false for unknown names.
func StageByName(name string) (Stage, bool) {
	for s, n := range stageNames {
		if n == name {
			return Stage(s), true
		}
	}
	return NumStages, false
}

// BucketBounds are the fixed upper bounds (inclusive, in nanoseconds)
// of the latency histogram buckets, a 1-2.5-5 ladder from 100ns to 10s.
// A final implicit +Inf bucket catches everything above. The table is
// part of the telemetry contract: checkpointed campaigns, merged
// worker registries and report tooling all assume identical buckets.
var BucketBounds = [...]uint64{
	100, 250, 500, // ns
	1_000, 2_500, 5_000, // µs
	10_000, 25_000, 50_000,
	100_000, 250_000, 500_000,
	1_000_000, 2_500_000, 5_000_000, // ms
	10_000_000, 25_000_000, 50_000_000,
	100_000_000, 250_000_000, 500_000_000,
	1_000_000_000, 2_500_000_000, 5_000_000_000, // s
	10_000_000_000,
}

// NumBuckets counts the histogram buckets, including the +Inf overflow
// bucket.
const NumBuckets = len(BucketBounds) + 1

// Histogram is a fixed-bucket latency histogram with lock-free atomic
// buckets. The zero value is ready to use; all methods are safe on a
// nil receiver.
type Histogram struct {
	count   atomic.Uint64
	sumNS   atomic.Uint64
	buckets [NumBuckets]atomic.Uint64
}

// bucketIndex maps a duration in nanoseconds to its bucket. Most
// observations are small, so a linear scan from the low end beats a
// binary search on this table size.
func bucketIndex(ns uint64) int {
	for i, b := range BucketBounds {
		if ns <= b {
			return i
		}
	}
	return NumBuckets - 1
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := uint64(0)
	if d > 0 {
		ns = uint64(d)
	}
	h.count.Add(1)
	h.sumNS.Add(ns)
	h.buckets[bucketIndex(ns)].Add(1)
}

// ObserveSince records the duration elapsed since t0.
func (h *Histogram) ObserveSince(t0 time.Time) {
	if h != nil {
		h.Observe(time.Since(t0))
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// SumNS returns the sum of all observed durations in nanoseconds.
func (h *Histogram) SumNS() uint64 {
	if h == nil {
		return 0
	}
	return h.sumNS.Load()
}

// Bucket returns the count of bucket i (i == len(BucketBounds) is the
// +Inf bucket).
func (h *Histogram) Bucket(i int) uint64 {
	if h == nil || i < 0 || i >= NumBuckets {
		return 0
	}
	return h.buckets[i].Load()
}

// merge adds o's observations into h (registry collapse; see
// Registry.Merge for the determinism contract).
func (h *Histogram) merge(o *Histogram) {
	if h == nil || o == nil {
		return
	}
	h.count.Add(o.count.Load())
	h.sumNS.Add(o.sumNS.Load())
	for i := range h.buckets {
		h.buckets[i].Add(o.buckets[i].Load())
	}
}
