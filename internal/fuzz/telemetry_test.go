package fuzz

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"reflect"
	"sort"
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
	f.cases = make([]caseRecord, 1, 8)
	f.cases[0] = caseRecord{execs: 10}

	snap := f.Stats()
	want := append([]TracePoint(nil), snap.Trace...)

	// Mutate after sampling: append into the spare capacity and rewrite
	// the shared prefix (as Resume does when loading checkpoint state).
	f.cases = append(f.cases, caseRecord{execs: 20})
	f.cases[0] = caseRecord{execs: 999}

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
	if len(f.cases) <= len(want) {
		t.Fatalf("campaign did not grow the trace (%d -> %d); test is vacuous", len(want), len(f.cases))
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

// TestExecsPerSecMatchesWallTime: Stats().ExecsPerSec is the session's
// executions over the wall time the campaign was charged, and that time
// lies inside the wall time measured around the calls that ran them:
// one RunContext, a loop of direct Step calls, and RunContext in a
// resumed session. Each Step charges its own wall time, so the charged
// time can never exceed the measured time and the rate is never below
// the measured one; it may exceed it only by the time spent between
// steps, which a factor of 4 leaves room for on a loaded machine.
func TestExecsPerSecMatchesWallTime(t *testing.T) {
	const execs = 20000
	check := func(name string, f *Fuzzer, base uint64, calls func()) {
		t.Helper()
		t0 := time.Now()
		calls()
		wall := time.Since(t0)
		st := f.Stats()
		if st.Execs-base != execs {
			t.Fatalf("%s: ran %d executions, want %d", name, st.Execs-base, execs)
		}
		measured := float64(execs) / wall.Seconds()
		if st.ExecsPerSec < measured || st.ExecsPerSec > 4*measured {
			t.Errorf("%s: ExecsPerSec = %.0f, want within [1, 4] x the measured %.0f (charged %v of %v)",
				name, st.ExecsPerSec, measured, st.SessionDuration, wall)
		}
	}
	cfg := smallConfig(coverage.V3(), 29)
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("RunContext", f, 0, func() {
		if err := f.RunContext(context.Background(), execs, 0); err != nil {
			t.Fatal(err)
		}
	})

	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	check("Step", g, 0, func() {
		for g.Execs() < execs {
			g.Step()
		}
	})

	dir := t.TempDir()
	if err := f.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	r, err := Resume(cfg, dir)
	if err != nil {
		t.Fatal(err)
	}
	check("resumed RunContext", r, execs, func() {
		if err := r.RunContext(context.Background(), 2*execs, 0); err != nil {
			t.Fatal(err)
		}
	})
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

	// Stage timers time every obs.SampleEvery-th execution with weight
	// obs.SampleEvery: mutate runs on every sampled step, filter on the
	// sampled steps whose input the filter checked (not known-accepted),
	// execute on those whose input the filter accepted, and
	// coverage-eval on those whose run completed.
	const n = obs.SampleEvery
	checked, executed, evaluated := sampledStages(t, cfg, st.Execs)
	for _, c := range []struct {
		stage obs.Stage
		want  uint64
	}{
		{obs.StageMutate, n * (st.Execs / n)},
		{obs.StageFilter, n * checked},
		{obs.StageExecute, n * executed},
		{obs.StageCoverageEval, n * evaluated},
	} {
		if got := cfg.Obs.Stage(c.stage).Count(); got != c.want {
			t.Errorf("%s stage count = %d, want %d", c.stage, got, c.want)
		}
	}
	if checked == 0 || checked == st.Execs/n || executed == 0 || evaluated == 0 {
		t.Errorf("%d of %d sampled steps checked, %d executed, %d evaluated; the schedule check is vacuous",
			checked, st.Execs/n, executed, evaluated)
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

// sampledStages replays cfg's campaign without telemetry for execs
// executions, stage by stage as Fuzzer.Step runs them, and counts the
// sampled executions (every obs.SampleEvery-th) whose input the filter
// checked, whose input reached the simulator and whose run completed.
func sampledStages(t *testing.T, cfg Config, execs uint64) (checked, executed, evaluated uint64) {
	t.Helper()
	cfg.Obs, cfg.Events = nil, nil
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for f.execs < execs {
		f.execs++
		sampled := b2u(f.execs%obs.SampleEvery == 0)
		input, known := f.nextInput()
		if !known {
			checked += sampled
		}
		if !f.admit(input, known) {
			continue
		}
		executed += sampled
		if !f.execute(input) {
			continue
		}
		evaluated += sampled
		f.evaluate(input)
	}
	return checked, executed, evaluated
}

// b2u is 1 for true and 0 for false.
func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// checkPublished compares every fuzz counter in reg with the fuzzer's
// own counts minus base, the counts a resumed session started from, and
// the gauges with the fuzzer's corpus and coverage.
func checkPublished(t *testing.T, phase string, reg *obs.Registry, f *Fuzzer, base Stats) {
	t.Helper()
	st := f.Stats()
	for _, c := range []struct {
		name       string
		got, since uint64
	}{
		{"rvnegtest_fuzz_execs_total", st.Execs, base.Execs},
		{"rvnegtest_fuzz_crashes_total", st.Crashes, base.Crashes},
		{"rvnegtest_fuzz_timeouts_total", st.Timeouts, base.Timeouts},
		{"rvnegtest_fuzz_harness_faults_total", st.HarnessFaults, base.HarnessFaults},
		{"rvnegtest_fuzz_corpus_adds_total", uint64(st.TestCases), uint64(base.TestCases)},
		{"rvnegtest_fuzz_traps_total", f.traps, 0},
	} {
		if v := reg.Counter(c.name).Value(); v != c.got-c.since {
			t.Errorf("%s: %s = %d, want the session's %d", phase, c.name, v, c.got-c.since)
		}
	}
	for r := analysis.ReasonNone + 1; r < analysis.NumReasons; r++ {
		name := `rvnegtest_fuzz_dropped_total{reason="` + r.Slug() + `"}`
		if v, want := reg.Counter(name).Value(), st.Filter.Counts[r]-base.Filter.Counts[r]; v != want {
			t.Errorf("%s: %s = %d, want the session's %d", phase, name, v, want)
		}
	}
	if v := reg.Gauge("rvnegtest_fuzz_corpus_size").Value(); v != int64(st.TestCases) {
		t.Errorf("%s: corpus size gauge = %d, test cases = %d", phase, v, st.TestCases)
	}
	if v := reg.Gauge("rvnegtest_fuzz_coverage_bits").Value(); v != int64(st.CovBits) {
		t.Errorf("%s: coverage bits gauge = %d, stats = %d", phase, v, st.CovBits)
	}
}

// TestTelemetryPublishPoints pins when the registry sees the fuzzer's
// counts: exactly the session's share after every publish point (each
// obs.SampleEvery-th execution, RunContext returning, also when ctx
// cancels it, SaveCheckpoint, FlushTelemetry and Resume), and fewer than
// obs.SampleEvery executions behind in between.
func TestTelemetryPublishPoints(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var runs atomic.Int64
	cfg := smallConfig(coverage.V1(), 11)
	cfg.NewTarget = faultyFactory(func([]byte) sim.Fault {
		if runs.Add(1) == 1000 {
			cancel()
		}
		return sim.FaultNone
	}, "", nil)
	cfg.Obs = obs.NewRegistry()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	execs := cfg.Obs.Counter("rvnegtest_fuzz_execs_total")
	for f.Execs() < 3*obs.SampleEvery+10 {
		f.Step()
		if f.Execs()%obs.SampleEvery == 0 {
			checkPublished(t, fmt.Sprintf("step %d", f.Execs()), cfg.Obs, f, Stats{})
		} else if lag := f.Execs() - execs.Value(); lag >= obs.SampleEvery {
			t.Fatalf("step %d: execs counter lags by %d", f.Execs(), lag)
		}
	}

	if err := f.RunContext(ctx, 1<<40, 0); !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext = %v, want the cancellation", err)
	}
	if f.Execs()%obs.SampleEvery == 0 {
		t.Fatalf("cancelled on a sampled step (%d); the check is vacuous", f.Execs())
	}
	checkPublished(t, "cancelled RunContext", cfg.Obs, f, Stats{})

	dir := t.TempDir()
	f.Step()
	if err := f.SaveCheckpoint(dir); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, "SaveCheckpoint", cfg.Obs, f, Stats{})
	f.Step()
	f.FlushTelemetry()
	checkPublished(t, "FlushTelemetry", cfg.Obs, f, Stats{})

	cfg2 := cfg
	cfg2.Obs = obs.NewRegistry()
	g, err := Resume(cfg2, dir)
	if err != nil {
		t.Fatal(err)
	}
	base := g.Stats()
	g.FlushTelemetry()
	checkPublished(t, "Resume", cfg2.Obs, g, base)
	if err := g.Run(g.Execs()+obs.SampleEvery+7, 0); err != nil {
		t.Fatal(err)
	}
	checkPublished(t, "resumed Run", cfg2.Obs, g, base)
}

// TestEventsOnlyStageSummary: a campaign with an event log but no
// registry still times its stages, so each worker's stage_summary lists
// mutate, filter, execute and coverage-eval.
func TestEventsOnlyStageSummary(t *testing.T) {
	cfg := smallConfig(coverage.V3(), 3)
	var buf bytes.Buffer
	cfg.Events = obs.NewEventLog(&buf)
	if _, _, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 1, ExecsEach: 2000}); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	summaries := 0
	for _, ev := range evs {
		if ev.Type != "stage_summary" {
			continue
		}
		summaries++
		for _, s := range []obs.Stage{obs.StageMutate, obs.StageFilter, obs.StageExecute, obs.StageCoverageEval} {
			if ev.Stages[s.String()].Count == 0 {
				t.Errorf("stage_summary lacks the %s stage: %+v", s, ev.Stages)
			}
		}
	}
	if summaries != 1 {
		t.Fatalf("%d stage_summary events, want 1", summaries)
	}
}

// TestTelemetryScrapeDuringCampaign runs a two-worker campaign while
// another goroutine keeps rendering the registry, as /metrics and
// /debug/vars do (run under -race in CI).
func TestTelemetryScrapeDuringCampaign(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 21)
	cfg.Obs = obs.NewRegistry()
	cfg.Events = obs.NewEventLog(io.Discard)
	done := make(chan struct{})
	scraped := make(chan int)
	go func() {
		n := 0
		for {
			select {
			case <-done:
				scraped <- n
				return
			default:
			}
			if err := cfg.Obs.WritePrometheus(io.Discard); err != nil {
				t.Error(err)
			}
			cfg.Obs.TakeSnapshot()
			n++
		}
	}()
	_, stats, err := Campaign(context.Background(), cfg, CampaignConfig{Workers: 2, ExecsEach: 3000})
	close(done)
	if n := <-scraped; n == 0 {
		t.Error("the registry was never scraped during the campaign")
	}
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, s := range stats {
		want += s.Execs
	}
	if got := cfg.Obs.Counter("rvnegtest_fuzz_execs_total").Value(); got != want {
		t.Errorf("execs counter = %d, per-worker sum = %d", got, want)
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

// TestCampaignMergedTelemetry: the workers of a checkpointed campaign
// publish into one registry, whose counters, gauges and stage counts
// must equal the sums of the per-worker stats and stage_summary events,
// and the lifecycle events must bracket the campaign.
func TestCampaignMergedTelemetry(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 3)
	cfg.Obs = obs.NewRegistry()
	var buf bytes.Buffer
	cfg.Events = obs.NewEventLog(&buf)
	cc := CampaignConfig{Workers: 2, ExecsEach: 3000, CheckpointDir: t.TempDir(), CheckpointEvery: 1000}
	_, stats, err := Campaign(context.Background(), cfg, cc)
	if err != nil {
		t.Fatal(err)
	}
	var wantExecs uint64
	var wantCorpus, wantCovBits int64
	for _, s := range stats {
		wantExecs += s.Execs
		wantCorpus += int64(s.TestCases)
		wantCovBits += int64(s.CovBits)
	}
	if got := cfg.Obs.Counter("rvnegtest_fuzz_execs_total").Value(); got != wantExecs {
		t.Errorf("execs counter = %d, per-worker sum = %d", got, wantExecs)
	}
	// The gauges describe running fuzzers only: every worker withdrew
	// its values when it finished.
	for _, name := range []string{"rvnegtest_fuzz_corpus_size", "rvnegtest_fuzz_coverage_bits"} {
		if got := cfg.Obs.Gauge(name).Value(); got != 0 {
			t.Errorf("%s = %d after the campaign, want 0", name, got)
		}
	}
	if wantCorpus == 0 || wantCovBits == 0 {
		t.Fatalf("the workers collected %d cases and %d coverage bits", wantCorpus, wantCovBits)
	}
	if err := cfg.Events.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	summed := map[string]uint64{}
	for _, ev := range evs {
		counts[ev.Type]++
		for name, s := range ev.Stages {
			summed[name] += s.Count
		}
	}
	for s := obs.Stage(0); s < obs.NumStages; s++ {
		if got, want := cfg.Obs.Stage(s).Count(), summed[s.String()]; got != want {
			t.Errorf("%s stage count = %d, stage_summary counts sum to %d", s, got, want)
		}
	}
	if summed[obs.StageMutate.String()] == 0 || summed[obs.StageCheckpointWrite.String()] == 0 {
		t.Errorf("stage_summary events lack mutate or checkpoint-write counts: %v", summed)
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

// BenchmarkTelemetryOverhead measures what telemetry costs a fuzz step
// as one paired, in-process comparison: two warmed fuzzers on the same
// seed, one bare and one fully wired (registry plus an event log on
// io.Discard), follow the same trajectory, so each chunk of
// telemetryChunk steps does the same work on both. Every iteration runs
// one chunk on each, swapping which goes first, and the benchmark
// reports the median on/off chunk-time ratio as overhead-% together
// with the median step times (scripts/telemetry_bench.sh gates on it).
func BenchmarkTelemetryOverhead(b *testing.B) {
	const telemetryChunk = 1000
	warm := func(wired bool) *Fuzzer {
		cfg := smallConfig(coverage.V1(), 1)
		if wired {
			cfg.Obs = obs.NewRegistry()
			cfg.Events = obs.NewEventLog(io.Discard)
		}
		f, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Warm the corpus so the steady-state mix of mutate, filter and
		// execute is what's measured, not the cold start.
		if err := f.Run(2000, 0); err != nil {
			b.Fatal(err)
		}
		return f
	}
	off, on := warm(false), warm(true)
	chunk := func(f *Fuzzer) float64 {
		t0 := time.Now()
		for i := 0; i < telemetryChunk; i++ {
			f.Step()
		}
		return float64(time.Since(t0).Nanoseconds()) / telemetryChunk
	}
	offNS := make([]float64, 0, b.N)
	onNS := make([]float64, 0, b.N)
	ratios := make([]float64, 0, b.N)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var a, c float64
		if i%2 == 0 {
			a = chunk(off)
			c = chunk(on)
		} else {
			c = chunk(on)
			a = chunk(off)
		}
		offNS, onNS, ratios = append(offNS, a), append(onNS, c), append(ratios, c/a)
	}
	b.StopTimer()
	if off.Execs() != on.Execs() || len(off.Corpus()) != len(on.Corpus()) {
		b.Fatalf("the fuzzers diverged: %d/%d execs, %d/%d cases",
			off.Execs(), on.Execs(), len(off.Corpus()), len(on.Corpus()))
	}
	median := func(xs []float64) float64 {
		sort.Float64s(xs)
		if n := len(xs); n%2 == 0 {
			return (xs[n/2-1] + xs[n/2]) / 2
		}
		return xs[len(xs)/2]
	}
	b.ReportMetric(median(offNS), "off-ns/step")
	b.ReportMetric(median(onNS), "on-ns/step")
	b.ReportMetric(100*(median(ratios)-1), "overhead-%")
}

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

// TestGaugesSumRunningFuzzers: fuzzers publishing into one registry add
// their gauge values, so while they run the gauges read the per-worker
// sums of corpus size and coverage bits; a fuzzer that withdraws (as a
// finished Campaign worker does) takes exactly its own values out.
func TestGaugesSumRunningFuzzers(t *testing.T) {
	reg := obs.NewRegistry()
	var fs []*Fuzzer
	for w := range 2 {
		cfg := smallConfig(coverage.V1(), int64(3+w))
		cfg.Obs, cfg.Worker = reg, w
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Run(3000, 0); err != nil {
			t.Fatal(err)
		}
		fs = append(fs, f)
	}
	gauges := func() [2]int64 {
		return [2]int64{reg.Gauge("rvnegtest_fuzz_corpus_size").Value(), reg.Gauge("rvnegtest_fuzz_coverage_bits").Value()}
	}
	sum := func(fs []*Fuzzer) (s [2]int64) {
		for _, f := range fs {
			st := f.Stats()
			s[0] += int64(st.TestCases)
			s[1] += int64(st.CovBits)
		}
		return s
	}
	if got, want := gauges(), sum(fs); got != want || want[0] == 0 {
		t.Fatalf("gauges %v while both fuzzers run, per-worker sums %v", got, want)
	}
	fs[0].tel.withdraw()
	if got, want := gauges(), sum(fs[1:]); got != want {
		t.Fatalf("gauges %v after worker 0 withdrew, worker 1 has %v", got, want)
	}
	fs[1].tel.withdraw()
	if got := gauges(); got != [2]int64{} {
		t.Fatalf("gauges %v after both withdrew, want 0", got)
	}
}
