package compliance

import (
	"fmt"

	"rvnegtest/internal/obs"
)

// runnerTelemetry holds a Run's pre-resolved observability handles. It is
// nil when both Runner.Obs and Runner.Events are unset, and every use site
// guards on that nil (zero-cost-off, like fuzz.telemetry). Per-SUT
// counters are resolved once per Run so the engines never take the
// registry lock on the hot path; the counters themselves are atomics, so
// parallel workers share them without locking.
//
// Telemetry is observational only: counter adds happen on merged rows and
// serialized stats paths, event emission is serialized by the EventLog,
// and nothing here feeds back into the report, the checkpoint or the
// fingerprint — reports stay bit-identical with telemetry on or off.
type runnerTelemetry struct {
	reg    *obs.Registry
	events *obs.EventLog

	execs   *obs.Counter // simulator executions (reference + SUT)
	rows    *obs.Counter // configuration rows completed this session
	skipped *obs.Counter // cases skipped (reference crashed / timed out)
	traps   *obs.Counter // executor traps taken across all runs

	stExec    *obs.Histogram // per-run simulator execution latency
	stCompare *obs.Histogram // per-case signature comparison latency

	perSim map[string]*simCounters
}

// simCounters are one simulator's labeled counter family.
type simCounters struct {
	mismatches   *obs.Counter
	crashes      *obs.Counter
	timeouts     *obs.Counter
	hfaults      *obs.Counter
	breakerOpens *obs.Counter

	// External-adapter supervision counters (stay zero for in-process
	// columns).
	restarts      *obs.Counter // adapter process respawns
	retries       *obs.Counter // re-attempted runs after adapter faults
	adapterSkips  *obs.Counter // cases skipped for adapter-level failure
	breakerCloses *obs.Counter // successful half-open recoveries
}

// newRunnerTelemetry resolves the run's metric handles, or returns nil
// when telemetry is disabled.
func newRunnerTelemetry(r *Runner) *runnerTelemetry {
	if r.Obs == nil && r.Events == nil {
		return nil
	}
	reg := r.Obs
	t := &runnerTelemetry{
		reg:       reg,
		events:    r.Events,
		execs:     reg.Counter("rvnegtest_compliance_execs_total"),
		rows:      reg.Counter("rvnegtest_compliance_rows_total"),
		skipped:   reg.Counter("rvnegtest_compliance_skipped_total"),
		traps:     reg.Counter("rvnegtest_compliance_traps_total"),
		stExec:    reg.Stage(obs.StageExecute),
		stCompare: reg.Stage(obs.StageSignatureCompare),
		perSim:    map[string]*simCounters{},
	}
	names := []string{r.Ref.Name}
	for i := range r.cols {
		names = append(names, r.cols[i].name)
	}
	for _, name := range names {
		if _, ok := t.perSim[name]; ok {
			continue
		}
		label := `{sim="` + name + `"}`
		t.perSim[name] = &simCounters{
			mismatches:    reg.Counter("rvnegtest_compliance_mismatches_total" + label),
			crashes:       reg.Counter("rvnegtest_compliance_crashes_total" + label),
			timeouts:      reg.Counter("rvnegtest_compliance_timeouts_total" + label),
			hfaults:       reg.Counter("rvnegtest_compliance_harness_faults_total" + label),
			breakerOpens:  reg.Counter("rvnegtest_compliance_breaker_opens_total" + label),
			restarts:      reg.Counter("rvnegtest_compliance_sut_restarts_total" + label),
			retries:       reg.Counter("rvnegtest_compliance_sut_retries_total" + label),
			adapterSkips:  reg.Counter("rvnegtest_compliance_adapter_skipped_total" + label),
			breakerCloses: reg.Counter("rvnegtest_compliance_breaker_closes_total" + label),
		}
	}
	return t
}

// event forwards ev to the event log. Safe on a nil receiver; the
// EventLog serializes emission, so workers call this concurrently.
func (t *runnerTelemetry) event(ev obs.Event) {
	if t == nil {
		return
	}
	t.events.Emit(ev)
}

// execHist returns the execution-stage histogram handle (nil when
// telemetry is off, which instance.run treats as "no clock reads").
func (t *runnerTelemetry) execHist() *obs.Histogram {
	if t == nil {
		return nil
	}
	return t.stExec
}

// trapCounter returns the executor-trap counter handle (nil when
// telemetry is off; instance.run treats nil as "don't count").
func (t *runnerTelemetry) trapCounter() *obs.Counter {
	if t == nil {
		return nil
	}
	return t.traps
}

// compareHist returns the signature-compare stage histogram handle.
func (t *runnerTelemetry) compareHist() *obs.Histogram {
	if t == nil {
		return nil
	}
	return t.stCompare
}

// addExecs counts simulator executions (called on serialized paths or
// with atomic counters; both are safe).
func (t *runnerTelemetry) addExecs(n int) {
	if t == nil {
		return
	}
	t.execs.Add(uint64(n))
}

// breakerOpened records a tripped breaker for one simulator (called from
// the Breaker.OnOpen hook, on the faulting worker's goroutine).
func (t *runnerTelemetry) breakerOpened(name string) {
	if t == nil {
		return
	}
	if sc := t.perSim[name]; sc != nil {
		sc.breakerOpens.Inc()
	}
}

// breakerClosed records a successful half-open recovery (external
// columns only).
func (t *runnerTelemetry) breakerClosed(name string) {
	if t == nil {
		return
	}
	if sc := t.perSim[name]; sc != nil {
		sc.breakerCloses.Inc()
	}
}

// sutRestarted records one adapter process respawn (from the Adapter's
// OnRestart hook, on the owning worker's goroutine; counters are
// atomics).
func (t *runnerTelemetry) sutRestarted(name string) {
	if t == nil {
		return
	}
	if sc := t.perSim[name]; sc != nil {
		sc.restarts.Inc()
	}
}

// sutRetried records one re-attempted adapter run.
func (t *runnerTelemetry) sutRetried(name string) {
	if t == nil {
		return
	}
	if sc := t.perSim[name]; sc != nil {
		sc.retries.Inc()
	}
}

// rowDone folds a completed (merged) configuration row into the per-SUT
// counters and emits the row_done event. Rows are produced sequentially
// by the dispatcher, so the adds are deterministic for every worker
// count — the merged row already is.
func (t *runnerTelemetry) rowDone(r *Runner, cfg string, row []Cell, skipped int) {
	if t == nil {
		return
	}
	t.rows.Inc()
	t.skipped.Add(uint64(skipped))
	for j := range row {
		c := &row[j]
		if !c.Supported {
			continue
		}
		sc := t.perSim[r.cols[j].name]
		if sc == nil {
			continue
		}
		sc.mismatches.Add(uint64(c.Mismatches))
		sc.crashes.Add(uint64(c.Crashes))
		sc.timeouts.Add(uint64(c.Timeouts))
		sc.hfaults.Add(uint64(c.HarnessFaults))
		sc.adapterSkips.Add(uint64(c.SkippedAdapter))
	}
	t.event(obs.Event{Type: "row_done", Worker: -1, Config: cfg, Detail: rowDetail(row, skipped)})
}

// rowDetail compresses a row into the event's free-form detail field.
func rowDetail(row []Cell, skipped int) string {
	var mism, hf int
	for i := range row {
		mism += row[i].Mismatches
		hf += row[i].HarnessFaults
	}
	s := fmt.Sprintf("mismatches=%d", mism)
	if hf > 0 {
		s += fmt.Sprintf(" harness_faults=%d", hf)
	}
	if skipped > 0 {
		s += fmt.Sprintf(" skipped=%d", skipped)
	}
	return s
}
