package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/sim"
)

// TestStatsTraceCopy is the regression test for the aliased-trace bug:
// Stats() used to return Trace sharing the fuzzer's backing array, so
// campaign steps after the sample (or a checkpoint restore rewriting the
// trace) could mutate a snapshot the caller already held.
func TestStatsTraceCopy(t *testing.T) {
	f, err := New(smallConfig(coverage.V1(), 42))
	if err != nil {
		t.Fatal(err)
	}
	// Arrange a trace with spare capacity, exactly the state a growing
	// campaign leaves behind between appends.
	f.trace = make([]TracePoint, 1, 8)
	f.trace[0] = TracePoint{Execs: 10, TestCases: 1}

	snap := f.Stats()
	want := append([]TracePoint(nil), snap.Trace...)

	// Mutate after sampling: append into the spare capacity and rewrite
	// the shared prefix (as Resume does when loading checkpoint state).
	f.trace = append(f.trace, TracePoint{Execs: 20, TestCases: 2})
	f.trace[0] = TracePoint{Execs: 999, TestCases: 999}

	if !reflect.DeepEqual(snap.Trace, want) {
		t.Fatalf("sampled Trace mutated by later campaign activity:\n got %+v\nwant %+v", snap.Trace, want)
	}

	// Same hazard for the corpus accessor: replacing an element in the
	// fuzzer's slice must not show through an earlier Corpus() snapshot.
	f.corpus = [][]byte{{1, 2}, {3, 4}}
	cs := f.Corpus()
	f.corpus[0] = []byte{9, 9}
	if !bytes.Equal(cs[0], []byte{1, 2}) {
		t.Fatalf("Corpus() snapshot aliased the live corpus slice: %v", cs[0])
	}
}

// TestStatsTraceCopyLive repeats the regression end-to-end: sample stats
// mid-campaign, keep stepping, and require the sample to stay frozen.
func TestStatsTraceCopyLive(t *testing.T) {
	f, err := New(smallConfig(coverage.V1(), 43))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(3000, 0); err != nil {
		t.Fatal(err)
	}
	snap := f.Stats()
	want := append([]TracePoint(nil), snap.Trace...)
	if len(want) == 0 {
		t.Fatal("campaign collected no test cases; trace empty")
	}
	if err := f.Run(10000, 0); err != nil {
		t.Fatal(err)
	}
	if len(f.trace) <= len(want) {
		t.Fatalf("campaign did not grow the trace (%d -> %d); test is vacuous", len(want), len(f.trace))
	}
	if !reflect.DeepEqual(snap.Trace, want) {
		t.Fatalf("mid-campaign Stats().Trace mutated by later steps")
	}
}

// TestResumeSessionRate is the regression test for the diluted-rate bug:
// after -resume, ExecsPerSec used to divide cumulative execs by cumulative
// elapsed, so a campaign resumed after hours of prior wall-clock reported
// a near-zero "live" rate. The rate must cover only the current session,
// while Duration stays cumulative.
func TestResumeSessionRate(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 17)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(2000, 0); err != nil {
		t.Fatal(err)
	}
	// Simulate a long previous session before the checkpoint.
	const prior = 100 * time.Hour
	f.elapsed = prior

	dir := t.TempDir()
	if err := f.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	g, err := Resume(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Run(4000, 0); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Execs != 4000 {
		t.Fatalf("execs = %d, want 4000", st.Execs)
	}
	if st.Duration < prior {
		t.Errorf("Duration = %v, want cumulative (>= %v)", st.Duration, prior)
	}
	if st.SessionDuration >= time.Hour {
		t.Errorf("SessionDuration = %v, want session-local wall-clock", st.SessionDuration)
	}
	// The buggy computation yields 4000 execs / 100h ≈ 0.011/s; the real
	// session rate for 2000 executions is orders of magnitude above 10/s.
	if st.ExecsPerSec < 10 {
		t.Errorf("ExecsPerSec = %g after resume: diluted by pre-interrupt wall-clock", st.ExecsPerSec)
	}
}

// TestTelemetryCountersMatchStats: the registry's counters must agree with
// the campaign's own statistics, and the event stream must record every
// corpus add in order.
func TestTelemetryCountersMatchStats(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 7)
	cfg.Obs = obs.NewRegistry()
	var buf bytes.Buffer
	cfg.Events = obs.NewEventLog(&buf)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Run(5000, 0); err != nil {
		t.Fatal(err)
	}
	st := f.Stats()

	if got := cfg.Obs.Counter("rvnegtest_fuzz_execs_total").Value(); got != st.Execs {
		t.Errorf("execs counter = %d, stats = %d", got, st.Execs)
	}
	if got := cfg.Obs.Counter("rvnegtest_fuzz_corpus_adds_total").Value(); got != uint64(st.TestCases) {
		t.Errorf("corpus adds counter = %d, test cases = %d", got, st.TestCases)
	}
	if got := cfg.Obs.Gauge("rvnegtest_fuzz_corpus_size").Value(); got != int64(st.TestCases) {
		t.Errorf("corpus size gauge = %d, test cases = %d", got, st.TestCases)
	}
	if got := cfg.Obs.Gauge("rvnegtest_fuzz_coverage_bits").Value(); got != int64(st.CovBits) {
		t.Errorf("coverage bits gauge = %d, stats = %d", got, st.CovBits)
	}
	var drops uint64
	for r := range st.Filter.Counts {
		name := `rvnegtest_fuzz_dropped_total{reason="` + analysis.Reason(r).Slug() + `"}`
		v := cfg.Obs.Counter(name).Value()
		if r == 0 {
			// Reason 0 is "accepted": never a drop.
			if v != 0 {
				t.Errorf("accepted inputs counted as drops: %d", v)
			}
			continue
		}
		if v != st.Filter.Counts[r] {
			t.Errorf("drop counter %s = %d, filter stats = %d", name, v, st.Filter.Counts[r])
		}
		drops += v
	}
	if drops != st.Dropped {
		t.Errorf("summed drop counters = %d, stats.Dropped = %d", drops, st.Dropped)
	}

	// Stage timers cover every execution: mutate runs once per step,
	// filter once per step (filter enabled), execute once per accepted
	// input.
	if got := cfg.Obs.Stage(obs.StageMutate).Count(); got != st.Execs {
		t.Errorf("mutate stage count = %d, execs = %d", got, st.Execs)
	}
	if got := cfg.Obs.Stage(obs.StageFilter).Count(); got != st.Execs {
		t.Errorf("filter stage count = %d, execs = %d", got, st.Execs)
	}
	if got := cfg.Obs.Stage(obs.StageExecute).Count(); got != st.Execs-st.Dropped {
		t.Errorf("execute stage count = %d, accepted = %d", got, st.Execs-st.Dropped)
	}

	if err := cfg.Events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var adds int
	var lastSeq uint64
	for _, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("event seq not strictly increasing: %d after %d", ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Type == "corpus_add" {
			adds++
			if ev.Corpus != adds {
				t.Errorf("corpus_add #%d reports corpus=%d", adds, ev.Corpus)
			}
		}
	}
	if adds != st.TestCases {
		t.Errorf("%d corpus_add events, %d test cases", adds, st.TestCases)
	}
}

// TestTelemetryDoesNotPerturbDeterminism: the same campaign with and
// without telemetry must produce byte-identical corpora and identical
// deterministic statistics — telemetry is observational only.
func TestTelemetryDoesNotPerturbDeterminism(t *testing.T) {
	run := func(withTel bool) ([][]byte, []Stats) {
		cfg := smallConfig(coverage.V1(), 99)
		if withTel {
			cfg.Obs = obs.NewRegistry()
			cfg.Events = obs.NewEventLog(&bytes.Buffer{})
		}
		corpus, stats, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 2, ExecsEach: 4000})
		if err != nil {
			t.Fatal(err)
		}
		return corpus, stats
	}
	plainCorpus, plainStats := run(false)
	telCorpus, telStats := run(true)

	if !reflect.DeepEqual(plainCorpus, telCorpus) {
		t.Fatalf("corpus differs with telemetry enabled: %d vs %d cases", len(plainCorpus), len(telCorpus))
	}
	normalize := func(ss []Stats) []byte {
		det := make([]Stats, len(ss))
		for i, s := range ss {
			det[i] = s.Deterministic()
		}
		b, err := json.Marshal(det)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := normalize(plainStats), normalize(telStats); !bytes.Equal(a, b) {
		t.Fatalf("deterministic stats differ with telemetry enabled:\n off: %s\n on:  %s", a, b)
	}
}

// TestCampaignMergedTelemetry: per-worker child registries must collapse
// into parent totals that match the per-worker stats, and the lifecycle
// events must bracket the campaign.
func TestCampaignMergedTelemetry(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 3)
	cfg.Obs = obs.NewRegistry()
	var buf bytes.Buffer
	cfg.Events = obs.NewEventLog(&buf)
	_, stats, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 2, ExecsEach: 3000})
	if err != nil {
		t.Fatal(err)
	}
	var wantExecs uint64
	for _, s := range stats {
		wantExecs += s.Execs
	}
	if got := cfg.Obs.Counter("rvnegtest_fuzz_execs_total").Value(); got != wantExecs {
		t.Errorf("collapsed execs counter = %d, per-worker sum = %d", got, wantExecs)
	}
	if err := cfg.Events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, ev := range evs {
		counts[ev.Type]++
	}
	if counts["campaign_start"] != 1 || counts["campaign_done"] != 1 {
		t.Errorf("campaign bracket events = %+v", counts)
	}
	if counts["stage_summary"] != 2 {
		t.Errorf("stage_summary events = %d, want one per worker", counts["stage_summary"])
	}
	if evs[0].Type != "campaign_start" || evs[len(evs)-1].Type != "campaign_done" {
		t.Errorf("events not bracketed: first=%s last=%s", evs[0].Type, evs[len(evs)-1].Type)
	}
}

// Benchmarks pinning the telemetry overhead budget (CI publishes these as
// BENCH_telemetry.json; enabled-vs-disabled must stay within a few
// percent on the stepping hot path).

func benchStep(b *testing.B, withTel bool) {
	cfg := smallConfig(coverage.V1(), 1)
	if withTel {
		cfg.Obs = obs.NewRegistry()
	}
	f, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// Warm the corpus so the steady-state mix of mutate/filter/execute is
	// what's measured, not the cold start.
	f.Run(2000, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Step()
	}
}

func BenchmarkStepTelemetryOff(b *testing.B) { benchStep(b, false) }
func BenchmarkStepTelemetryOn(b *testing.B)  { benchStep(b, true) }

// TestTelemetrySaneAcrossFaultsAndResume: across watchdog reaps (the
// target rebuilt while the abandoned run may still be stepping the old
// one) and a checkpoint/resume into a fresh registry, the exec, timeout
// and harness-fault counters equal the session's own counts from
// Stats() and never underflow. An underflowed uint64 would show up as an
// astronomically large counter value.
func TestTelemetrySaneAcrossFaultsAndResume(t *testing.T) {
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

	// check compares the registry with the session's share of st: the
	// stats carry the campaign's counts up to the checkpoint in base.
	check := func(phase string, reg *obs.Registry, st, base Stats) {
		for _, c := range []struct {
			name       string
			got, since uint64
		}{
			{"rvnegtest_fuzz_execs_total", st.Execs, base.Execs},
			{"rvnegtest_fuzz_timeouts_total", st.Timeouts, base.Timeouts},
			{"rvnegtest_fuzz_harness_faults_total", st.HarnessFaults, base.HarnessFaults},
		} {
			v := reg.Counter(c.name).Value()
			if v > 1<<60 {
				t.Fatalf("%s: %s = %d (uint64 underflow)", phase, c.name, v)
			}
			if v != c.got-c.since {
				t.Errorf("%s: %s = %d, want the session's %d", phase, c.name, v, c.got-c.since)
			}
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
	before := f.Stats()
	if before.HarnessFaults == 0 {
		t.Fatal("no watchdog reaps before the checkpoint; the rebuild path was not exercised")
	}
	check("pre-checkpoint", cfg.Obs, before, Stats{})
	if err := f.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}

	// Resume into a fresh process-equivalent: new registry, counters
	// from zero, while Stats() carries the checkpointed counts forward.
	cfg2 := cfg
	cfg2.Obs = obs.NewRegistry()
	f2, err := Resume(cfg2, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := f2.Run(2400, 0); err != nil {
		t.Fatal(err)
	}
	after := f2.Stats()
	if after.HarnessFaults <= before.HarnessFaults {
		t.Fatal("no watchdog reaps after the resume")
	}
	check("post-resume", cfg2.Obs, after, before)
}
