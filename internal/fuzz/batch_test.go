package fuzz

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
)

// TestBatchAblationBitIdentical is the campaign-level determinism
// guarantee of batched lockstep execution: for every worker count, a
// batched campaign produces exactly the corpus and deterministic stats
// of the scalar campaign — the speculation/rollback front-end preserves
// the scalar schedule bit for bit.
func TestBatchAblationBitIdentical(t *testing.T) {
	run := func(batch, workers int) ([][]byte, []string) {
		cfg := smallConfig(coverage.V1(), 41)
		cfg.Batch = batch
		corpus, stats, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: workers, ExecsEach: 3000})
		if err != nil {
			t.Fatal(err)
		}
		det := make([]string, len(stats))
		for i, s := range stats {
			det[i] = mustJSON(t, s.Deterministic())
		}
		return corpus, det
	}
	for _, workers := range []int{1, 2, 8} {
		offCorpus, offStats := run(0, workers)
		if len(offCorpus) == 0 {
			t.Fatalf("workers=%d: empty corpus", workers)
		}
		for _, batch := range []int{4, 8} {
			onCorpus, onStats := run(batch, workers)
			if !reflect.DeepEqual(onCorpus, offCorpus) {
				t.Fatalf("workers=%d batch=%d: corpus differs from scalar: %d vs %d cases",
					workers, batch, len(onCorpus), len(offCorpus))
			}
			if !reflect.DeepEqual(onStats, offStats) {
				t.Fatalf("workers=%d batch=%d: deterministic stats differ from scalar:\n on:  %v\n off: %v",
					workers, batch, onStats, offStats)
			}
		}
	}
}

// TestBatchCheckpointCrossResume checks that Batch stays outside the
// checkpoint fingerprint: a campaign checkpointed scalar must resume
// cleanly batched (and vice versa) and still end bit-identical to an
// uninterrupted scalar run.
func TestBatchCheckpointCrossResume(t *testing.T) {
	const budget = 12000
	cfg := smallConfig(coverage.V1(), 43)

	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(budget, 0); err != nil {
		t.Fatal(err)
	}

	for _, firstBatch := range []int{0, 4} {
		dir := t.TempDir()
		cfgA := cfg
		cfgA.Batch = firstBatch
		f1, err := New(cfgA)
		if err != nil {
			t.Fatal(err)
		}
		if err := f1.Run(5000, 0); err != nil {
			t.Fatal(err)
		}
		if err := f1.SaveCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		cfgB := cfg
		cfgB.Batch = 4 - firstBatch
		f2, err := Resume(cfgB, dir)
		if err != nil {
			t.Fatalf("resume across batch ablation (first=%d): %v", firstBatch, err)
		}
		if err := f2.Run(budget, 0); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Corpus(), f2.Corpus()) {
			t.Fatalf("first=%d: cross-resumed corpus differs: %d vs %d cases",
				firstBatch, len(f2.Corpus()), len(base.Corpus()))
		}
		if want, got := mustJSON(t, base.Stats().Deterministic()), mustJSON(t, f2.Stats().Deterministic()); want != got {
			t.Fatalf("first=%d: deterministic stats differ:\n  uninterrupted: %s\n  cross-resumed: %s", firstBatch, want, got)
		}
	}
}

// TestBatchFaultFallbackBitIdentical drives a batched campaign against a
// misbehaving simulator (input-keyed panics and wedges) and proves the
// batch degradation path is invisible in the results: a poisoned batch
// is abandoned and rerun scalar, so corpus, crash/timeout/harness-fault
// counts and quarantine behaviour all match the scalar campaign exactly.
func TestBatchFaultFallbackBitIdentical(t *testing.T) {
	release := make(chan struct{})
	defer close(release) // let abandoned wedge goroutines exit at teardown
	plan := sim.SeededSchedule(99, 0.004, 0.002, 0)
	run := func(batch int) (Stats, [][]byte, *obs.Registry) {
		cfg := smallConfig(coverage.V1(), 47)
		cfg.Batch = batch
		cfg.CaseTimeout = 50 * time.Millisecond
		cfg.NewTarget = faultyFactory(plan, "exec: injected batch-era panic", release)
		cfg.Obs = obs.NewRegistry()
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(1500, 0); err != nil {
			t.Fatal(err)
		}
		return f.Stats(), f.Corpus(), cfg.Obs
	}
	scalar, scalarCorpus, _ := run(0)
	if scalar.HarnessFaults == 0 {
		t.Fatal("fault schedule injected nothing; the fallback path was not exercised")
	}
	batched, batchedCorpus, reg := run(4)
	if want, got := mustJSON(t, scalar.Deterministic()), mustJSON(t, batched.Deterministic()); want != got {
		t.Fatalf("deterministic stats differ across batch fault fallback:\n  scalar: %s\n  batch:  %s", want, got)
	}
	if !reflect.DeepEqual(scalarCorpus, batchedCorpus) {
		t.Fatalf("corpus differs across batch fault fallback: %d vs %d cases",
			len(scalarCorpus), len(batchedCorpus))
	}
	if reg.Counter("rvnegtest_fuzz_batch_aborts_total").Value() == 0 {
		t.Fatal("no batch aborts recorded; the degradation path did not run")
	}
	if reg.Counter("rvnegtest_fuzz_batch_runs_total").Value() == 0 {
		t.Fatal("no successful batch runs recorded around the faults")
	}
}

// TestBatchPredecodeCountersSaneAcrossFaultsAndResume is the
// counter-clamping regression test: across batched runs, watchdog
// aborts (stats never read from an abandoned runner) and a
// checkpoint/resume (counters restart from a fresh target), the
// predecode_* telemetry totals must never go backwards or underflow —
// an underflowed uint64 delta would show up as an astronomically large
// counter value.
func TestBatchPredecodeCountersSaneAcrossFaultsAndResume(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	var calls atomic.Int64 // Plan runs on guard goroutines, not the test's
	plan := func([]byte) sim.Fault {
		if calls.Add(1)%120 == 0 {
			return sim.FaultWedge
		}
		return sim.FaultNone
	}
	dir := t.TempDir()

	counters := func(reg *obs.Registry) map[string]uint64 {
		names := []string{
			"rvnegtest_fuzz_predecode_hits_total",
			"rvnegtest_fuzz_predecode_misses_total",
			"rvnegtest_fuzz_predecode_invalidations_total",
		}
		m := make(map[string]uint64, len(names))
		for _, n := range names {
			m[n] = reg.Counter(n).Value()
		}
		return m
	}
	checkSane := func(phase string, vals map[string]uint64) {
		for n, v := range vals {
			if v > 1<<60 {
				t.Fatalf("%s: %s = %d (uint64 underflow: a delta was computed from a stale or reset snapshot)", phase, n, v)
			}
		}
		if vals["rvnegtest_fuzz_predecode_hits_total"] == 0 {
			t.Fatalf("%s: predecode hit counter is zero despite batched cached execution", phase)
		}
	}

	cfg := smallConfig(coverage.V1(), 53)
	cfg.Batch = 4
	cfg.CaseTimeout = 50 * time.Millisecond
	cfg.NewTarget = faultyFactory(plan, "", release)
	cfg.Obs = obs.NewRegistry()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(1200, 0); err != nil {
		t.Fatal(err)
	}
	// The call-counter plan wedges batch runs, not their scalar reruns,
	// so the faults surface as batch aborts (stats stay scalar-clean).
	if cfg.Obs.Counter("rvnegtest_fuzz_batch_aborts_total").Value() == 0 {
		t.Fatal("no batch aborts observed before the checkpoint")
	}
	checkSane("pre-checkpoint", counters(cfg.Obs))
	if err := f.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	// Resume into a fresh process-equivalent: new registry, counters from
	// zero, target caches from zero — the deltas must still be computed
	// against the fresh snapshots, never against pre-resume state.
	cfg2 := cfg
	cfg2.Obs = obs.NewRegistry()
	f2, err := Resume(cfg2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Run(2400, 0); err != nil {
		t.Fatal(err)
	}
	checkSane("post-resume", counters(cfg2.Obs))
}
