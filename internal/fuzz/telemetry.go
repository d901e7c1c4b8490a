package fuzz

import (
	"time"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/obs"
)

// telemetry publishes a fuzzer's own counts to a registry and times its
// stages on sampled executions (package obs); nil when both Config.Obs
// and Config.Events are unset. It never feeds back into campaign
// decisions, checkpoints or Stats.Deterministic(), so outputs stay
// byte-identical with telemetry on or off.
//
// Every worker of a campaign publishes into the same registry, so the
// fuzzer adds deltas only, gauges included: a Set from one worker would
// overwrite the others'. A gauge is the sum of the running fuzzers'
// values: a campaign worker withdraws its own when it finishes.
type telemetry struct {
	reg    *obs.Registry
	events *obs.EventLog
	worker int

	counters                [numCounts]*obs.Counter
	corpusSize, covBits     *obs.Gauge
	last                    [numCounts]uint64 // counts as of the previous publish
	lastCorpus, lastCovBits int64             // gauge values as of the previous publish

	stages [obs.NumStages]obs.StageSummary // stage sums since the previous stage_summary
}

// counterNames names the counts Fuzzer.counts lists first; the filter's
// per-reason counts follow them.
var counterNames = [...]string{
	"rvnegtest_fuzz_execs_total",
	"rvnegtest_fuzz_traps_total",
	"rvnegtest_fuzz_crashes_total",
	"rvnegtest_fuzz_timeouts_total",
	"rvnegtest_fuzz_harness_faults_total",
	"rvnegtest_fuzz_corpus_adds_total",
}

const numCounts = len(counterNames) + int(analysis.NumReasons)

// counts lists the fuzzer's own counts in counterNames order, then its
// filter drops by reason; the slot of reason 0, acceptance, stays 0.
func (f *Fuzzer) counts() [numCounts]uint64 {
	c := [numCounts]uint64{f.execs, f.traps, f.crashes, f.timeout, f.hfaults, uint64(len(f.corpus))}
	copy(c[len(counterNames)+1:], f.fstats.Counts[analysis.ReasonNone+1:])
	return c
}

// newTelemetry resolves the fuzzer's metric handles, or returns nil
// when telemetry is disabled.
func newTelemetry(cfg Config) *telemetry {
	if cfg.Obs == nil && cfg.Events == nil {
		return nil
	}
	reg := cfg.Obs
	t := &telemetry{
		reg:        reg,
		events:     cfg.Events,
		worker:     cfg.Worker,
		corpusSize: reg.Gauge("rvnegtest_fuzz_corpus_size"),
		covBits:    reg.Gauge("rvnegtest_fuzz_coverage_bits"),
	}
	for i, name := range counterNames {
		t.counters[i] = reg.Counter(name)
	}
	for r := analysis.Reason(0); r < analysis.NumReasons; r++ {
		t.counters[len(counterNames)+int(r)] = reg.Counter(`rvnegtest_fuzz_dropped_total{reason="` + r.Slug() + `"}`)
	}
	return t
}

// sampleStep is Step on a sampled execution: the same stages, each
// timed with weight obs.SampleEvery, followed by a publish.
// The filter stage is timed only when Filter.Check ran. A known-accepted
// input skips the check (admit), and so does every input when the
// filter is disabled; a near-zero sample for those would understate the
// check's mean. What admit takes for them goes to the execute stage.
func (t *telemetry) sampleStep(f *Fuzzer, start time.Time) bool {
	defer t.publish(f)
	input, known := f.nextInput()
	lap := t.lap(obs.StageMutate, start)
	accepted := f.admit(input, known)
	if !known && !f.cfg.DisableFilter {
		lap = t.lap(obs.StageFilter, lap)
	}
	if !accepted {
		return false
	}
	completed := f.execute(input)
	lap = t.lap(obs.StageExecute, lap)
	if !completed {
		return false
	}
	novel := f.evaluate(input)
	t.lap(obs.StageCoverageEval, lap)
	return novel
}

// lap closes stage s of a sampled step in the registry (obs.Registry.Lap)
// and in the fuzzer's own stage sums, and returns the clock reading that
// opens the next stage.
func (t *telemetry) lap(s obs.Stage, t0 time.Time) time.Time {
	next, d := t.reg.Lap(s, t0)
	t.addStage(s, d, obs.SampleEvery)
	return next
}

// addStage adds n operations of duration d to stage s's sums, as
// obs.Histogram.ObserveN adds them to the registry's timer.
func (t *telemetry) addStage(s obs.Stage, d time.Duration, n uint64) {
	t.stages[s].Count += n
	t.stages[s].TotalNS += n * uint64(d)
}

// takeStages returns the non-empty stage sums since the previous call,
// keyed by stage name, and starts new ones.
func (t *telemetry) takeStages() map[string]obs.StageSummary {
	out := map[string]obs.StageSummary{}
	for s, sum := range t.stages {
		if sum.Count > 0 {
			out[obs.Stage(s).String()] = sum
		}
	}
	t.stages = [obs.NumStages]obs.StageSummary{}
	return out
}

// publish adds the fuzzer's counts and gauge values since the previous
// publish to the registry. Safe on a nil receiver.
func (t *telemetry) publish(f *Fuzzer) {
	if t == nil {
		return
	}
	now := f.counts()
	for i, c := range t.counters {
		c.Add(now[i] - t.last[i])
	}
	t.last = now
	corpus, covBits := int64(len(f.corpus)), int64(f.col.Map.BucketBits())
	t.corpusSize.Add(corpus - t.lastCorpus)
	t.covBits.Add(covBits - t.lastCovBits)
	t.lastCorpus, t.lastCovBits = corpus, covBits
}

// withdraw takes the fuzzer's last published gauge values back out of
// the registry, so that its gauges describe running fuzzers only. Safe
// on a nil receiver.
func (t *telemetry) withdraw() {
	if t == nil {
		return
	}
	t.corpusSize.Add(-t.lastCorpus)
	t.covBits.Add(-t.lastCovBits)
	t.lastCorpus, t.lastCovBits = 0, 0
}

// event emits ev with the fuzzer's worker index filled in. Safe on a
// nil receiver.
func (t *telemetry) event(ev obs.Event) {
	if t == nil {
		return
	}
	ev.Worker = t.worker
	t.events.Emit(ev)
}
