package fuzz

import (
	"rvnegtest/internal/analysis"
	"rvnegtest/internal/obs"
)

// telemetry holds a fuzzer's pre-resolved observability handles. It is
// nil when both Config.Obs and Config.Events are unset, and every use
// site guards on that nil, so a campaign without telemetry performs no
// clock reads, no atomic updates and no event encoding beyond the
// pre-telemetry code — the zero-cost-off contract. Telemetry state
// never feeds back into campaign decisions, never enters checkpoints
// and never appears in Stats.Deterministic(), so outputs stay
// byte-identical with telemetry on or off.
type telemetry struct {
	reg    *obs.Registry
	events *obs.EventLog
	worker int

	execs   *obs.Counter
	traps   *obs.Counter
	crashes *obs.Counter
	timeout *obs.Counter
	hfaults *obs.Counter
	adds    *obs.Counter
	drops   [analysis.NumReasons]*obs.Counter

	corpusSize *obs.Gauge
	covBits    *obs.Gauge

	stMutate *obs.Histogram
	stFilter *obs.Histogram
	stExec   *obs.Histogram
	stCov    *obs.Histogram
	stCkpt   *obs.Histogram
}

// newTelemetry resolves the fuzzer's metric handles, or returns nil
// when telemetry is disabled. A nil registry with a non-nil event log
// is valid: the metric handles are nil (no-op) and only events flow.
func newTelemetry(cfg Config) *telemetry {
	if cfg.Obs == nil && cfg.Events == nil {
		return nil
	}
	reg := cfg.Obs
	t := &telemetry{
		reg:        reg,
		events:     cfg.Events,
		worker:     cfg.Worker,
		execs:      reg.Counter("rvnegtest_fuzz_execs_total"),
		traps:      reg.Counter("rvnegtest_fuzz_traps_total"),
		crashes:    reg.Counter("rvnegtest_fuzz_crashes_total"),
		timeout:    reg.Counter("rvnegtest_fuzz_timeouts_total"),
		hfaults:    reg.Counter("rvnegtest_fuzz_harness_faults_total"),
		adds:       reg.Counter("rvnegtest_fuzz_corpus_adds_total"),
		corpusSize: reg.Gauge("rvnegtest_fuzz_corpus_size"),
		covBits:    reg.Gauge("rvnegtest_fuzz_coverage_bits"),
		stMutate:   reg.Stage(obs.StageMutate),
		stFilter:   reg.Stage(obs.StageFilter),
		stExec:     reg.Stage(obs.StageExecute),
		stCov:      reg.Stage(obs.StageCoverageEval),
		stCkpt:     reg.Stage(obs.StageCheckpointWrite),
	}
	for r := analysis.Reason(0); r < analysis.NumReasons; r++ {
		t.drops[r] = reg.Counter(`rvnegtest_fuzz_dropped_total{reason="` + r.Slug() + `"}`)
	}
	return t
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

// emitSummary emits the cumulative stage-timer totals of this fuzzer's
// registry as a stage_summary event (the input of `rvreport -events`).
func (t *telemetry) emitSummary(execs uint64, corpus int) {
	if t == nil || t.events == nil {
		return
	}
	t.event(obs.Event{
		Type:   "stage_summary",
		Execs:  execs,
		Corpus: corpus,
		Stages: t.reg.StageSummaries(),
	})
}
