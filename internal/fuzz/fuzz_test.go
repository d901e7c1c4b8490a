package fuzz

import (
	"encoding/json"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/filter"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

func smallConfig(opts coverage.Options, seed int64) Config {
	return Config{
		Coverage:   opts,
		ISA:        isa.RV32GC,
		MaxLen:     64,
		LenControl: 500,
		Seed:       seed,
	}
}

// TestStepAllocs pins what a warmed-up step allocates: one copy of the
// input per corpus addition, plus the corpus and trace slices growing.
// The filter and the mutator each reuse one analysis, the mutators build
// every candidate in one buffer, a collector's run builds no signature
// and the inline harness call needs no closure, so a step that adds
// nothing allocates nothing. Both fuzz benchmark configurations must
// stay within stepAllocSlack allocations of their corpus additions over
// 10,000 steps. The count is read exactly (testing.AllocsPerRun
// truncates the average).
func TestStepAllocs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, tc := range []struct {
		name string
		cov  coverage.Options
		fam  template.Family
	}{
		{"v3/user", coverage.V3(), template.FamilyUser},
		{"v0/trap", coverage.V0(), template.FamilyTrap},
	} {
		cfg := DefaultConfig()
		cfg.Seed = 5
		cfg.Coverage = tc.cov
		cfg.Family = tc.fam
		f, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 20000; i++ {
			f.Step()
		}
		const steps = 10000
		corpus := len(f.corpus)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < steps; i++ {
			f.Step()
		}
		runtime.ReadMemStats(&after)
		adds, mallocs := uint64(len(f.corpus)-corpus), after.Mallocs-before.Mallocs
		t.Logf("%s: %d allocations for %d corpus additions", tc.name, mallocs, adds)
		if mallocs > adds+stepAllocSlack {
			t.Errorf("%s: %d steps made %d allocations for %d corpus additions, want at most %d",
				tc.name, steps, mallocs, adds, adds+stepAllocSlack)
		}
	}
}

// stepAllocSlack bounds the allocations of 10,000 steps beyond one per
// corpus addition: the corpus and trace slices double a few times.
const stepAllocSlack = 16

func TestCampaignCollectsTestCases(t *testing.T) {
	f, err := New(smallConfig(coverage.V1(), 7))
	if err != nil {
		t.Fatal(err)
	}
	f.Run(20000, 0)
	st := f.Stats()
	if st.Execs != 20000 {
		t.Errorf("execs = %d", st.Execs)
	}
	if st.TestCases < 50 {
		t.Errorf("test cases = %d, want a substantial corpus", st.TestCases)
	}
	if st.Dropped == 0 {
		t.Error("the filter should drop some inputs")
	}
	if st.Dropped >= st.Execs {
		t.Error("some inputs must survive the filter")
	}
	if st.Crashes != 0 || st.Timeouts != 0 {
		t.Errorf("reference target must not crash/time out: %+v", st)
	}
	if st.ExecsPerSec <= 0 {
		t.Error("exec rate not measured")
	}
	t.Logf("execs/sec: %.0f, test cases: %d, dropped: %d", st.ExecsPerSec, st.TestCases, st.Dropped)
}

// TestCorpusAllPassFilter: everything the fuzzer collects must be
// filter-accepted (the generated suite is usable for automated compliance
// testing as-is).
func TestCorpusAllPassFilter(t *testing.T) {
	f, err := New(smallConfig(coverage.V1(), 8))
	if err != nil {
		t.Fatal(err)
	}
	f.Run(10000, 0)
	flt := &filter.Filter{MaxLen: 64}
	for i, bs := range f.Corpus() {
		if res := flt.Check(bs); !res.Accepted {
			t.Fatalf("corpus[%d] = %x rejected: %v", i, bs, res)
		}
		if len(bs) > 64 {
			t.Fatalf("corpus[%d] length %d exceeds the limit", i, len(bs))
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() ([]([]byte), Stats) {
		f, err := New(smallConfig(coverage.V1(), 42))
		if err != nil {
			t.Fatal(err)
		}
		f.Run(5000, 0)
		return f.Corpus(), f.Stats()
	}
	c1, s1 := run()
	c2, s2 := run()
	if len(c1) != len(c2) || s1.Dropped != s2.Dropped {
		t.Fatalf("campaigns diverge: %d/%d cases, %d/%d dropped",
			len(c1), len(c2), s1.Dropped, s2.Dropped)
	}
	for i := range c1 {
		if string(c1[i]) != string(c2[i]) {
			t.Fatalf("corpus[%d] differs", i)
		}
	}
}

// TestCoverageConfigOrdering reproduces the Fig. 4 relationship on a small
// budget: richer coverage configurations collect more test cases.
func TestCoverageConfigOrdering(t *testing.T) {
	counts := map[string]int{}
	for _, name := range []string{"v0", "v1", "v3"} {
		opts, _ := coverage.ByName(name)
		f, err := New(smallConfig(opts, 11))
		if err != nil {
			t.Fatal(err)
		}
		f.Run(15000, 0)
		counts[name] = f.Stats().TestCases
	}
	t.Logf("test cases: v0=%d v1=%d v3=%d", counts["v0"], counts["v1"], counts["v3"])
	if !(counts["v0"] < counts["v1"] && counts["v1"] < counts["v3"]) {
		t.Errorf("coverage ordering violated: %v", counts)
	}
}

func TestGrowthCurveShape(t *testing.T) {
	f, err := New(smallConfig(coverage.V2(), 13))
	if err != nil {
		t.Fatal(err)
	}
	f.Run(20000, 0)
	tr := f.Stats().Trace
	if len(tr) < 20 {
		t.Fatalf("trace too short: %d", len(tr))
	}
	// Monotone growth.
	for i := 1; i < len(tr); i++ {
		if tr[i].TestCases != tr[i-1].TestCases+1 || tr[i].Execs < tr[i-1].Execs {
			t.Fatalf("trace not monotone at %d: %+v %+v", i, tr[i-1], tr[i])
		}
	}
	// Early saturation (Fig. 4): the first half of the executions collects
	// the clear majority of the test cases.
	half := tr[len(tr)-1].Execs / 2
	atHalf := 0
	for _, p := range tr {
		if p.Execs <= half {
			atHalf = p.TestCases
		}
	}
	total := tr[len(tr)-1].TestCases
	if atHalf*10 < total*6 {
		t.Errorf("growth not front-loaded: %d of %d at half budget", atHalf, total)
	}
}

func TestCustomMutatorAblation(t *testing.T) {
	with, err := New(smallConfig(coverage.V1(), 21))
	if err != nil {
		t.Fatal(err)
	}
	with.Run(10000, 0)
	cfg := smallConfig(coverage.V1(), 21)
	cfg.DisableCustomMutator = true
	without, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	without.Run(10000, 0)
	// The instruction-aware mutator produces far more filter-surviving,
	// coverage-producing inputs.
	w, wo := with.Stats(), without.Stats()
	t.Logf("with mutator: %d cases (%d dropped); without: %d cases (%d dropped)",
		w.TestCases, w.Dropped, wo.TestCases, wo.Dropped)
	if w.TestCases <= wo.TestCases {
		t.Errorf("custom mutator should increase the corpus: %d vs %d", w.TestCases, wo.TestCases)
	}
}

func TestFilterAblationProducesHazards(t *testing.T) {
	cfg := smallConfig(coverage.V1(), 31)
	cfg.DisableFilter = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(20000, 0)
	st := f.Stats()
	if st.Dropped != 0 {
		t.Errorf("dropped = %d with the filter disabled", st.Dropped)
	}
	// Without the filter, non-terminating inputs reach the simulator.
	if st.Timeouts == 0 {
		t.Error("expected timeouts without the filter (infinite loops reach the target)")
	}
}

// TestFilterStatsConsistency: the per-reason histogram must tie out with
// the campaign's aggregate counters — every execution is classified once,
// and the dropped count equals the sum of the drop reasons.
func TestFilterStatsConsistency(t *testing.T) {
	f, err := New(smallConfig(coverage.V1(), 77))
	if err != nil {
		t.Fatal(err)
	}
	f.Run(10000, 0)
	st := f.Stats()
	if st.Filter.Total() != st.Execs {
		t.Errorf("filter checked %d inputs, campaign ran %d", st.Filter.Total(), st.Execs)
	}
	if st.Filter.Dropped() != st.Dropped {
		t.Errorf("filter histogram drops %d, campaign counted %d", st.Filter.Dropped(), st.Dropped)
	}
	if st.Filter.Accepted() != st.Execs-st.Dropped {
		t.Errorf("accepted mismatch: %d vs %d", st.Filter.Accepted(), st.Execs-st.Dropped)
	}
	if st.Filter.Counts[analysis.ReasonPathBudget] != 0 {
		t.Error("the fixpoint filter must never drop for budget reasons")
	}
	if st.Filter.Counts[analysis.ReasonTooLong] != 0 {
		t.Error("the mutators bound lengths; no stream should trip MaxLen")
	}
	// JSON embeds the histogram under "filter".
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]json.RawMessage
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if _, ok := m["filter"]; !ok {
		t.Errorf("stats JSON lacks the filter histogram: %s", raw)
	}
}

// TestFilterStatsDisabled: with the filter ablated no classifications
// happen at all.
func TestFilterStatsDisabled(t *testing.T) {
	cfg := smallConfig(coverage.V0(), 78)
	cfg.DisableFilter = true
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(500, 0)
	st := f.Stats()
	if tot := st.Filter.Total(); tot != 0 {
		t.Errorf("filter stats recorded %d checks while disabled", tot)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{Coverage: coverage.V0(), MaxLen: 10000}); err == nil {
		t.Error("oversized MaxLen must fail")
	}
	// Zero values take defaults.
	f, err := New(Config{Coverage: coverage.V0()})
	if err != nil {
		t.Fatal(err)
	}
	if f.cfg.MaxLen != 64 || f.cfg.LenControl != 10000 || f.cfg.ISA != isa.RV32GC {
		t.Errorf("defaults not applied: %+v", f.cfg)
	}
}

func TestMutatorBounds(t *testing.T) {
	m := newMutator(newRng(5))
	for i := 0; i < 5000; i++ {
		base := make([]byte, newRng(int64(i)).Intn(64))
		out := m.generic(base, []byte{1, 2, 3, 4}, 64)
		if len(out) == 0 || len(out) > 64 {
			t.Fatalf("generic mutation length %d", len(out))
		}
		out = m.instructionAware(base, nil, 64)
		if len(out) > 64 {
			t.Fatalf("instruction mutation length %d", len(out))
		}
	}
}

func newRng(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TestWallClockBound: Run with only a duration bound terminates promptly.
func TestWallClockBound(t *testing.T) {
	f, err := New(smallConfig(coverage.V0(), 55))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	f.Run(0, 100*time.Millisecond)
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("wall-clock bound overran: %v", el)
	}
	if f.Stats().Execs == 0 {
		t.Fatal("no executions within the time budget")
	}
}

// TestSeedCorpus: seeding a campaign with a prior suite replays it first,
// reaching the prior coverage within the seed count and then improving on
// it — the basis of efficient continuous re-runs.
func TestSeedCorpus(t *testing.T) {
	base := smallConfig(coverage.V1(), 61)
	f1, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	f1.Run(8000, 0)
	prior := f1.Corpus()
	priorBits := f1.Stats().CovBits
	if len(prior) < 20 {
		t.Fatalf("prior corpus too small: %d", len(prior))
	}

	seeded := smallConfig(coverage.V1(), 62)
	seeded.Seeds = prior
	f2, err := New(seeded)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying exactly the seed inputs must already recover (almost all
	// of) the prior coverage: collection order equals discovery order, so
	// each seed still contributes.
	f2.Run(uint64(len(prior)), 0)
	st := f2.Stats()
	if st.TestCases < len(prior)*9/10 {
		t.Errorf("only %d of %d seeds were collected", st.TestCases, len(prior))
	}
	if st.CovBits < priorBits*9/10 {
		t.Errorf("seed replay reached %d bits, prior campaign had %d", st.CovBits, priorBits)
	}
	// Continuing past the seeds keeps fuzzing normally.
	f2.Run(uint64(len(prior))+4000, 0)
	if f2.Stats().TestCases <= st.TestCases {
		t.Error("no growth after seed replay")
	}
}

// TestSeedCorpusRespectsFilter: seeds are subject to the same filter as
// generated inputs (a hostile seed cannot smuggle in a forbidden case).
func TestSeedCorpusRespectsFilter(t *testing.T) {
	cfg := smallConfig(coverage.V0(), 63)
	wfi := isa.MustEncode(isa.Inst{Op: isa.OpWFI})
	cfg.Seeds = [][]byte{{byte(wfi), byte(wfi >> 8), byte(wfi >> 16), byte(wfi >> 24)}}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.Run(1, 0)
	st := f.Stats()
	if st.Dropped != 1 || st.TestCases != 0 {
		t.Errorf("forbidden seed: dropped=%d cases=%d", st.Dropped, st.TestCases)
	}
}
