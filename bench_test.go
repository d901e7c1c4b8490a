// Benchmarks regenerating the paper's evaluation artefacts (see DESIGN.md
// §6 for the experiment index and EXPERIMENTS.md for paper-vs-measured):
//
//	E1 BenchmarkFig4_*           — Fig. 4 growth curves per coverage config
//	E2 BenchmarkTableI           — Table I signature-mismatch counts
//	E3 BenchmarkFuzzerThroughput — executions/second (paper: 45,873 avg)
//	E4 BenchmarkBugDetection     — seeded-defect detection matrix
//	E6 BenchmarkAblationFilter   — spurious cross-platform mismatches
//	E7 BenchmarkAblationMutator  — custom-mutator contribution
//
// Counts are emitted as custom metrics; the absolute numbers scale with
// the per-iteration execution budget (the paper's 30-minute campaigns are
// reproduced by cmd/rvfuzz and cmd/rvcompliance with larger budgets).
package rvnegtest

import (
	"sync"
	"testing"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/csrtest"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
	"rvnegtest/internal/torture"
)

// benchBudget is the per-iteration execution budget of the campaign
// benchmarks: big enough for the curves' shape, small enough for -bench.
const benchBudget = 50000

// runCampaign executes one fuzzing campaign and reports its metrics.
func runCampaign(b *testing.B, covName string, mutate func(*fuzz.Config)) fuzz.Stats {
	b.Helper()
	var last fuzz.Stats
	for i := 0; i < b.N; i++ {
		cfg := fuzz.DefaultConfig()
		opts, ok := coverage.ByName(covName)
		if !ok {
			b.Fatalf("unknown coverage config %q", covName)
		}
		cfg.Coverage = opts
		cfg.Seed = int64(i + 1)
		if mutate != nil {
			mutate(&cfg)
		}
		f, err := fuzz.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f.Run(benchBudget, 0)
		last = f.Stats()
	}
	b.ReportMetric(float64(last.TestCases), "testcases")
	b.ReportMetric(last.ExecsPerSec, "execs/s")
	b.ReportMetric(float64(last.Dropped)/float64(last.Execs)*100, "%dropped")
	return last
}

// E1 — Fig. 4: test-case growth for the four coverage configurations. The
// relationship v0 < v1 < v2 <= v3 in the testcases metric is the figure's
// headline result.
func BenchmarkFig4_V0(b *testing.B) { runCampaign(b, "v0", nil) }
func BenchmarkFig4_V1(b *testing.B) { runCampaign(b, "v1", nil) }
func BenchmarkFig4_V2(b *testing.B) { runCampaign(b, "v2", nil) }
func BenchmarkFig4_V3(b *testing.B) { runCampaign(b, "v3", nil) }

// suiteOnce generates one shared v3 suite for the Table I benchmarks.
var (
	suiteOnce  sync.Once
	benchSuite *compliance.Suite
)

func sharedSuite(b *testing.B) *compliance.Suite {
	b.Helper()
	suiteOnce.Do(func() {
		cfg := fuzz.DefaultConfig()
		cfg.Seed = 99
		f, err := fuzz.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f.Run(4*benchBudget, 0)
		benchSuite = &compliance.Suite{Cases: f.Corpus(), Origin: "bench"}
	})
	return benchSuite
}

// E2 — Table I: run the generated suite across the simulator models and
// report the per-cell mismatch counts as metrics.
func BenchmarkTableI(b *testing.B) {
	suite := sharedSuite(b)
	var rep *compliance.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = compliance.DefaultRunner().Run(suite)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(suite.Cases)), "cases")
	for i, cfg := range rep.Configs {
		for j, name := range rep.Sims {
			c := rep.Cells[i][j]
			if !c.Supported {
				continue
			}
			metric := cfg.String() + "/" + name
			if c.Crashes > 0 {
				b.ReportMetric(float64(c.Crashes), metric+"_crashes")
			}
			b.ReportMetric(float64(c.Mismatches), metric+"_mismatch")
		}
	}
}

// E2b — parallel Table I scaling: the same workload as BenchmarkTableI on
// the sharded engine. The report is bit-identical at every worker count
// (asserted in internal/compliance's tests); the metric of interest here
// is near-linear cases/s scaling with the worker count.
func benchTableIWorkers(b *testing.B, workers int) {
	suite := sharedSuite(b)
	b.ResetTimer()
	var st compliance.RunStats
	for i := 0; i < b.N; i++ {
		r := compliance.DefaultRunner()
		r.Workers = workers
		if _, err := r.Run(suite); err != nil {
			b.Fatal(err)
		}
		st = r.Stats
	}
	b.ReportMetric(st.CasesPerSec, "cases/s")
	b.ReportMetric(float64(len(suite.Cases)), "cases")
}

func BenchmarkTableIParallel1(b *testing.B) { benchTableIWorkers(b, 1) }
func BenchmarkTableIParallel2(b *testing.B) { benchTableIWorkers(b, 2) }
func BenchmarkTableIParallel4(b *testing.B) { benchTableIWorkers(b, 4) }
func BenchmarkTableIParallel8(b *testing.B) { benchTableIWorkers(b, 8) }

// E3 — fuzzer throughput (the paper: 45,873 executions/second average on
// an i5-7200U, with the template pre-compiled and the memory restored
// between runs).
func BenchmarkFuzzerThroughput(b *testing.B) {
	cfg := fuzz.DefaultConfig()
	cfg.Seed = 5
	f, err := fuzz.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := f.Run(uint64(b.N), 0); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	st := f.Stats()
	b.ReportMetric(st.ExecsPerSec, "execs/s")
}

// E4 — the seeded-defect detection matrix: every defect class reported in
// section V-B must be detectable through a signature mismatch, a crash or
// a timeout of its hand-crafted trigger.
func BenchmarkBugDetection(b *testing.B) {
	type trigger struct {
		name string
		v    *sim.Variant
		cfg  isa.Config
		bs   []byte
	}
	enc := isa.MustEncode
	w := func(ws ...uint32) []byte {
		var out []byte
		for _, x := range ws {
			out = append(out, byte(x), byte(x>>8), byte(x>>16), byte(x>>24))
		}
		return out
	}
	triggers := []trigger{
		{"spike-ecall", sim.Spike, isa.RV32I, w(0x00000073)},
		{"vp-ecall-mask", sim.VP, isa.RV32I, w(0x00000073 | 5<<7)},
		{"vp-reserved-c", sim.VP, isa.RV32IMC, []byte{0x02, 0x40, 0, 0}},
		{"grift-link-write", sim.Grift, isa.RV32I, w(enc(isa.Inst{Op: isa.OpJAL, Rd: 1, Imm: 6}))},
		{"grift-imc-config", sim.Grift, isa.RV32IMC, w(enc(isa.Inst{Op: isa.OpFADDS, Rd: 1, Rs1: 2, Rs2: 3}))},
		{"grift-sc-reservation", sim.Grift, isa.RV32GC, w(enc(isa.Inst{Op: isa.OpSCW, Rd: 5, Rs1: 30, Rs2: 1}))},
		{"sail-loose-funct7", sim.Sail, isa.RV32I, w(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2}) | 0x13<<25)},
		{"sail-crash", sim.Sail, isa.RV32IMC, []byte{0x00, 0x84, 0, 0}},
		{"sail-nonterm", sim.Sail, isa.RV32I, w(0x00002063 | isa.PutImmB(-4)&^(7<<12))},
		{"ovpsim-custom", sim.OVPSim, isa.RV32I, w(0x0000400b)},
	}
	detected := 0
	for i := 0; i < b.N; i++ {
		detected = 0
		for _, tr := range triggers {
			p := template.Platform{Layout: template.DefaultLayout, Cfg: tr.cfg}
			refSim, err := sim.New(sim.Reference, p)
			if err != nil {
				b.Fatal(err)
			}
			sut, err := sim.New(tr.v, p)
			if err != nil {
				b.Fatal(err)
			}
			ref, got := refSim.Run(tr.bs), sut.Run(tr.bs)
			if got.Crashed || got.TimedOut || differs(ref.Signature, got.Signature) {
				detected++
			} else {
				b.Errorf("trigger %s not detected", tr.name)
			}
		}
	}
	b.ReportMetric(float64(detected), "bugs_detected")
	b.ReportMetric(float64(len(triggers)), "bugs_seeded")
}

func differs(a, b []uint32) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if a[i] != b[i] {
			return true
		}
	}
	return false
}

// E6 — filter ablation: without the static filter, a suite produces
// spurious signature mismatches between two specification-compliant
// platforms (different unaligned/WFI/EBREAK behaviour); with the filter
// the count must be exactly zero. This is the property that makes the
// paper's approach fully automatic.
func BenchmarkAblationFilter(b *testing.B) {
	spurious := func(disable bool, seed int64) int {
		cfg := fuzz.DefaultConfig()
		cfg.Coverage = coverage.V1()
		cfg.DisableFilter = disable
		cfg.Seed = seed
		f, err := fuzz.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f.Run(benchBudget/2, 0)
		base := template.Platform{Layout: template.DefaultLayout, Cfg: isa.RV32GC}
		alt := base
		alt.TrapUnaligned = true
		alt.WFIHalts = true
		alt.EbreakHalts = true
		sa, err := sim.New(sim.Reference, base)
		if err != nil {
			b.Fatal(err)
		}
		sb, err := sim.New(sim.Reference, alt)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, bs := range f.Corpus() {
			oa, ob := sa.Run(bs), sb.Run(bs)
			if oa.Crashed || oa.TimedOut || ob.Crashed || ob.TimedOut || differs(oa.Signature, ob.Signature) {
				n++
			}
		}
		return n
	}
	var withFilter, withoutFilter int
	for i := 0; i < b.N; i++ {
		withFilter = spurious(false, int64(i+1))
		withoutFilter = spurious(true, int64(i+1))
	}
	if withFilter != 0 {
		b.Errorf("filtered suite produced %d spurious mismatches", withFilter)
	}
	b.ReportMetric(float64(withFilter), "spurious_filtered")
	b.ReportMetric(float64(withoutFilter), "spurious_unfiltered")
}

// E7 — custom-mutator ablation: the instruction-aware mutator multiplies
// the number of collected test cases under an identical budget.
func BenchmarkAblationMutator(b *testing.B) {
	var with, without fuzz.Stats
	for i := 0; i < b.N; i++ {
		seed := int64(i + 1)
		run := func(disable bool) fuzz.Stats {
			cfg := fuzz.DefaultConfig()
			cfg.Coverage = coverage.V1()
			cfg.DisableCustomMutator = disable
			cfg.Seed = seed
			f, err := fuzz.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			f.Run(benchBudget, 0)
			return f.Stats()
		}
		with = run(false)
		without = run(true)
	}
	b.ReportMetric(float64(with.TestCases), "testcases_with")
	b.ReportMetric(float64(without.TestCases), "testcases_without")
}

// E9 — baseline comparison: positive-only test generation (the
// torture-style baseline and the official-style directed suite) against
// the negative-testing fuzzer, at an equal-order test-case count. The
// paper's thesis in one table: positive suites find (almost) nothing of
// the seeded defect population; the fuzzer finds all classes.
func BenchmarkBaselineComparison(b *testing.B) {
	var tortureTotal, officialTotal, fuzzTotal int
	for i := 0; i < b.N; i++ {
		tortureTotal, officialTotal, fuzzTotal = 0, 0, 0
		cfgs := []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC}
		// Positive suites are per-extension; run each on its own config.
		for _, cfg := range cfgs {
			tortureSuite, err := torture.Suite(int64(i+1), cfg, 400, 16)
			if err != nil {
				b.Fatal(err)
			}
			officialSuite, err := compliance.OfficialStyleSuite(cfg)
			if err != nil {
				b.Fatal(err)
			}
			for _, s := range []*compliance.Suite{tortureSuite, officialSuite} {
				r := compliance.DefaultRunner()
				r.Configs = []isa.Config{cfg}
				rep, err := r.Run(s)
				if err != nil {
					b.Fatal(err)
				}
				for j := range rep.Sims {
					if s.Origin[0] == 't' {
						tortureTotal += rep.Cells[0][j].Mismatches
					} else {
						officialTotal += rep.Cells[0][j].Mismatches
					}
				}
			}
		}
		// The fuzzer's single suite serves all configurations.
		rep, err := compliance.DefaultRunner().Run(sharedSuite(b))
		if err != nil {
			b.Fatal(err)
		}
		for x := range rep.Configs {
			for j := range rep.Sims {
				fuzzTotal += rep.Cells[x][j].Mismatches
			}
		}
	}
	b.ReportMetric(float64(tortureTotal), "mismatch_torture")
	b.ReportMetric(float64(officialTotal), "mismatch_official")
	b.ReportMetric(float64(fuzzTotal), "mismatch_fuzzer")
}

// E10 — CSR test framework (paper section VI directions 1+2): runs the
// fine-grained CSR suite across all simulators and reports the coverage
// metric and capability-selection behaviour.
func BenchmarkCSRFramework(b *testing.B) {
	tests := csrtest.Suite(isa.RV32GC)
	var covered, total int
	for i := 0; i < b.N; i++ {
		covered, total, _ = csrtest.Coverage(tests, isa.RV32GC)
		for _, v := range sim.All {
			if !v.Supports(isa.RV32GC) {
				continue
			}
			p := template.Platform{Layout: template.DefaultLayout, Cfg: isa.RV32GC}
			results, err := csrtest.Run(v, p, tests)
			if err != nil {
				b.Fatal(err)
			}
			for _, r := range results {
				if r.Crashed || r.TimedOut || len(r.Mismatch) > 0 {
					b.Fatalf("%s/%s failed", v.Name, r.Test)
				}
			}
		}
	}
	b.ReportMetric(float64(covered), "csr_points_covered")
	b.ReportMetric(float64(total), "csr_points_total")
	b.ReportMetric(float64(len(tests)), "csr_tests")
}
