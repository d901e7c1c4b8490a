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

// TestPredecodeAblationBitIdentical is the campaign-level determinism
// guarantee of the predecoded execution core: for every worker count, a
// campaign with the cache disabled produces exactly the corpus and
// deterministic stats of the default (cached) campaign.
func TestPredecodeAblationBitIdentical(t *testing.T) {
	run := func(disable bool, workers int) ([][]byte, []string) {
		cfg := smallConfig(coverage.V1(), 17)
		cfg.DisablePredecode = disable
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
		onCorpus, onStats := run(false, workers)
		offCorpus, offStats := run(true, workers)
		if len(onCorpus) == 0 {
			t.Fatalf("workers=%d: empty corpus", workers)
		}
		if !reflect.DeepEqual(onCorpus, offCorpus) {
			t.Fatalf("workers=%d: corpus differs with predecode disabled: %d vs %d cases",
				workers, len(onCorpus), len(offCorpus))
		}
		if !reflect.DeepEqual(onStats, offStats) {
			t.Fatalf("workers=%d: deterministic stats differ with predecode disabled:\n on:  %v\n off: %v",
				workers, onStats, offStats)
		}
	}
}

// TestPredecodeCheckpointCrossResume checks that DisablePredecode stays
// outside the checkpoint fingerprint: a campaign checkpointed with the
// cache enabled must resume cleanly with it disabled (and vice versa) and
// still end bit-identical to an uninterrupted run.
func TestPredecodeCheckpointCrossResume(t *testing.T) {
	const budget = 12000
	cfg := smallConfig(coverage.V1(), 23)

	base, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := base.Run(budget, 0); err != nil {
		t.Fatal(err)
	}

	for _, first := range []bool{false, true} {
		dir := t.TempDir()
		cfgA := cfg
		cfgA.DisablePredecode = first
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
		cfgB.DisablePredecode = !first
		f2, err := Resume(cfgB, dir)
		if err != nil {
			t.Fatalf("resume across predecode ablation (first=%v): %v", first, err)
		}
		if err := f2.Run(budget, 0); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(base.Corpus(), f2.Corpus()) {
			t.Fatalf("first=%v: cross-resumed corpus differs: %d vs %d cases",
				first, len(f2.Corpus()), len(base.Corpus()))
		}
		if want, got := mustJSON(t, base.Stats().Deterministic()), mustJSON(t, f2.Stats().Deterministic()); want != got {
			t.Fatalf("first=%v: deterministic stats differ:\n  uninterrupted: %s\n  cross-resumed: %s", first, want, got)
		}
	}
}

// TestPredecodeCountersObserveCache: with telemetry on, the decode-cache
// counters must show real traffic when the cache is enabled and stay at
// zero when it is disabled — and enabling them must not perturb the
// campaign (the corpus stays identical, checked above; here the counters
// themselves).
func TestPredecodeCountersObserveCache(t *testing.T) {
	run := func(disable bool) *obs.Registry {
		cfg := smallConfig(coverage.V1(), 31)
		cfg.DisablePredecode = disable
		cfg.Obs = obs.NewRegistry()
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(3000, 0); err != nil {
			t.Fatal(err)
		}
		return cfg.Obs
	}
	on := run(false)
	if hits := on.Counter("rvnegtest_fuzz_predecode_hits_total").Value(); hits == 0 {
		t.Error("predecode enabled but hit counter is zero")
	}
	if inv := on.Counter("rvnegtest_fuzz_predecode_invalidations_total").Value(); inv == 0 {
		t.Error("predecode enabled but invalidation counter is zero (every inject invalidates)")
	}
	off := run(true)
	for _, name := range []string{
		"rvnegtest_fuzz_predecode_hits_total",
		"rvnegtest_fuzz_predecode_misses_total",
		"rvnegtest_fuzz_predecode_invalidations_total",
	} {
		if v := off.Counter(name).Value(); v != 0 {
			t.Errorf("predecode disabled but %s = %d", name, v)
		}
	}
}

// TestPredecodeCountersSaneAcrossFaultsAndResume is the counter-clamping
// regression test: across watchdog reaps (stats never read from an
// abandoned target, counters restarting on the rebuilt one) and a
// checkpoint/resume (counters restart from a fresh target), the
// predecode_* telemetry totals must never go backwards or underflow —
// an underflowed uint64 delta would show up as an astronomically large
// counter value.
func TestPredecodeCountersSaneAcrossFaultsAndResume(t *testing.T) {
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
			t.Fatalf("%s: predecode hit counter is zero despite cached execution", phase)
		}
	}

	cfg := smallConfig(coverage.V1(), 53)
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
	if f.Stats().HarnessFaults == 0 {
		t.Fatal("no watchdog reaps before the checkpoint; the rebuild path was not exercised")
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
	if f2.Stats().HarnessFaults <= f.Stats().HarnessFaults {
		t.Fatal("no watchdog reaps after the resume")
	}
	checkSane("post-resume", counters(cfg2.Obs))
}
