package core

import (
	"context"
	"strings"
	"testing"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

func quickCfg(seed int64) fuzz.Config {
	cfg := fuzz.DefaultConfig()
	cfg.Coverage = coverage.V1()
	cfg.LenControl = 500
	cfg.Seed = seed
	return cfg
}

func TestGenerateSuite(t *testing.T) {
	suite, st, err := GenerateSuite(quickCfg(3), 10000, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Cases) == 0 || len(suite.Cases) != st.TestCases {
		t.Fatalf("suite: %d cases, stats %d", len(suite.Cases), st.TestCases)
	}
	if !strings.Contains(suite.Origin, "seed=3") {
		t.Errorf("origin = %q", suite.Origin)
	}
}

// TestBuildSuiteOriginAndProbes: the origin line follows the worker
// count alone, and a minimized trap suite ends with all four directed
// probes, appended after minimization.
func TestBuildSuiteOriginAndProbes(t *testing.T) {
	cfg := quickCfg(3)
	cfg.Family = template.FamilyTrap
	probes := fuzz.TrapDirectedCases()
	for _, tc := range []struct {
		workers int
		origin  string
	}{
		{1, "fuzzer seed=3 isa=RV32GC execs=3000 cov-points="},
		{2, "parallel fuzzer workers=2 seed=3 execs=6000"},
	} {
		suite, stats, err := BuildSuite(context.Background(), cfg,
			fuzz.CampaignConfig{Workers: tc.workers, ExecsEach: 3000})
		if err != nil {
			t.Fatal(err)
		}
		if len(stats) != tc.workers || !strings.HasPrefix(suite.Origin, tc.origin) {
			t.Errorf("workers=%d: %d stats, origin %q, want prefix %q", tc.workers, len(stats), suite.Origin, tc.origin)
		}
		n := len(suite.Cases) - len(probes)
		if n < 1 {
			t.Fatalf("workers=%d: %d cases", tc.workers, len(suite.Cases))
		}
		for i, p := range probes {
			if string(suite.Cases[n+i]) != string(p) {
				t.Errorf("workers=%d: case %d is not directed probe %d", tc.workers, n+i, i)
			}
		}
	}
}

// TestPipelineFindsSeededBugs runs the full two-phase pipeline on a small
// budget and checks the generated suite exposes defects in every
// simulator, reproducing Table I's qualitative content.
func TestPipelineFindsSeededBugs(t *testing.T) {
	cfg := quickCfg(5)
	cfg.Coverage = coverage.V3()
	suite, rep, st, err := Pipeline(cfg, 60000, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if st.TestCases < 100 {
		t.Fatalf("only %d test cases generated", st.TestCases)
	}
	t.Logf("suite: %d cases from %d execs\n%s", len(suite.Cases), st.Execs, rep.Render())
	cell := func(cfgWant isa.Config, name string) compliance.Cell {
		for i, c := range rep.Configs {
			if c != cfgWant {
				continue
			}
			for j, s := range rep.Sims {
				if s == name {
					return rep.Cells[i][j]
				}
			}
		}
		t.Fatalf("cell %v/%s missing", cfgWant, name)
		return compliance.Cell{}
	}
	// Every simulator is exposed in at least one configuration even at
	// this small budget (rare cells like VP/RV32I need the full-budget
	// experiment runs; see EXPERIMENTS.md).
	for j, name := range rep.Sims {
		total := 0
		for i := range rep.Configs {
			total += rep.Cells[i][j].Mismatches
		}
		if total == 0 {
			t.Errorf("%s: fuzzed suite found no mismatches in any configuration", name)
		}
		_ = j
	}
	// Table I shape checks.
	if g := cell(isa.RV32IMC, "GRIFT"); g.Mismatches <= cell(isa.RV32I, "GRIFT").Mismatches ||
		g.Mismatches <= cell(isa.RV32GC, "GRIFT").Mismatches {
		t.Error("GRIFT mismatches must peak on RV32IMC (the misconfigured target)")
	}
	if cell(isa.RV32IMC, sim.Sail.Name).Crashes == 0 {
		t.Error("sail did not crash on the fuzzed IMC suite")
	}
	if cell(isa.RV32IMC, "VP").Mismatches == 0 {
		t.Error("VP reserved-compressed defect not exposed on RV32IMC")
	}
	if cell(isa.RV32GC, "VP").Supported || cell(isa.RV32GC, sim.Sail.Name).Supported {
		t.Error("'/' cells missing")
	}
	if cell(isa.RV32I, "GRIFT").Mismatches == 0 {
		t.Error("GRIFT misaligned-jump defect not exposed on RV32I")
	}
}

func TestGrowthExperimentOrdering(t *testing.T) {
	res, err := GrowthExperiment(15000, 0, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	counts := map[string]int{}
	for _, r := range res {
		counts[r.Name] = r.Stats.TestCases
		if len(r.Stats.Trace) == 0 {
			t.Errorf("%s: empty trace", r.Name)
		}
	}
	t.Logf("growth: v0=%d v1=%d v2=%d v3=%d", counts["v0"], counts["v1"], counts["v2"], counts["v3"])
	if !(counts["v0"] < counts["v1"] && counts["v1"] < counts["v2"] && counts["v2"] <= counts["v3"]) {
		t.Errorf("Fig. 4 ordering violated: %v", counts)
	}
}

func TestPipelineCustomRunner(t *testing.T) {
	r := &compliance.Runner{
		Ref:     sim.Reference,
		SUTs:    []*sim.Variant{sim.Spike},
		Configs: []isa.Config{isa.RV32I},
	}
	_, rep, _, err := Pipeline(quickCfg(7), 3000, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if rep.RefName != "reference" || len(rep.Sims) != 1 {
		t.Errorf("runner config not honoured: %+v", rep)
	}
}

// TestContinuousAccumulates: repeated rounds with fresh seeds keep
// contributing previously unseen findings (the paper's continuous
// negative-testing claim).
func TestContinuousAccumulates(t *testing.T) {
	cfg := quickCfg(100)
	cfg.Coverage = coverage.V2()
	res, err := Continuous(cfg, 3, 15000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != 3 || res.Last == nil {
		t.Fatalf("rounds: %+v", res.Rounds)
	}
	total := 0
	for i, r := range res.Rounds {
		if r.NewFindings == 0 {
			t.Errorf("round %d (seed %d) contributed nothing new", i, r.Seed)
		}
		total += r.NewFindings
	}
	if total != res.Distinct {
		t.Errorf("distinct %d != sum of new findings %d", res.Distinct, total)
	}
	// Later rounds still find new cases, but the first round dominates.
	if res.Rounds[0].NewFindings <= res.Rounds[2].NewFindings/2 {
		t.Errorf("unexpected round profile: %+v", res.Rounds)
	}
}
