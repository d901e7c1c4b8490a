// Package core orchestrates the paper's two-phase pipeline: Phase A
// generates a compliance test suite with the coverage-guided fuzzer, and
// Phase B runs it across simulators, comparing signatures against the
// reference. It also provides the drivers for the paper's experiments
// (Fig. 4 growth curves and Table I).
package core

import (
	"context"
	"fmt"
	"time"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/template"
)

// BuildSuite runs Phase A as one fuzz.Campaign and packages the result
// as a suite. It is the only path from a fuzzing configuration to a
// suite: the origin line depends on the worker count alone, and a
// trap-family suite gets the directed probes appended once, after any
// minimization, so checkpointing and minimizing can never change or drop
// them.
func BuildSuite(ctx context.Context, cfg fuzz.Config, cc fuzz.CampaignConfig) (*compliance.Suite, []fuzz.Stats, error) {
	cases, stats, err := fuzz.Campaign(ctx, cfg, cc)
	if err != nil {
		return nil, stats, err
	}
	suite := &compliance.Suite{Cases: cases, Family: cfg.Family}
	if len(stats) == 1 {
		suite.Origin = fmt.Sprintf("fuzzer seed=%d isa=%v execs=%d cov-points=%d",
			cfg.Seed, cfg.ISA, stats[0].Execs, stats[0].CovPoints)
	} else {
		var execs uint64
		for _, st := range stats {
			execs += st.Execs
		}
		suite.Origin = fmt.Sprintf("parallel fuzzer workers=%d seed=%d execs=%d", len(stats), cfg.Seed, execs)
	}
	if cfg.Family == template.FamilyTrap {
		// The directed probes bypass the filter (they write mtvec and
		// mstatus) and guarantee each seeded privileged-defect class at
		// least one witnessing case regardless of the fuzzing budget.
		suite.Cases = append(suite.Cases, fuzz.TrapDirectedCases()...)
	}
	return suite, stats, nil
}

// GenerateSuite runs Phase A on one fuzzer, bounded by execution count
// and/or wall time, returning the collected test suite.
func GenerateSuite(cfg fuzz.Config, maxExecs uint64, maxDur time.Duration) (*compliance.Suite, fuzz.Stats, error) {
	suite, stats, err := BuildSuite(context.Background(), cfg, fuzz.CampaignConfig{ExecsEach: maxExecs, WallBudget: maxDur})
	if err != nil {
		return nil, fuzz.Stats{}, err
	}
	return suite, stats[0], nil
}

// GrowthResult is one configuration's outcome in the Fig. 4 experiment.
type GrowthResult struct {
	Name  string
	Stats fuzz.Stats
}

// GrowthExperiment reproduces Fig. 4: the v0..v3 coverage configurations
// fuzzing with the same budget; the trace in each result is the
// test-cases-vs-executions curve.
func GrowthExperiment(maxExecs uint64, maxDur time.Duration, seed int64) ([]GrowthResult, error) {
	var out []GrowthResult
	for _, name := range []string{"v0", "v1", "v2", "v3"} {
		opts, _ := coverage.ByName(name)
		cfg := fuzz.DefaultConfig()
		cfg.Coverage = opts
		cfg.Seed = seed
		suiteless, err := fuzz.New(cfg)
		if err != nil {
			return nil, err
		}
		if err := suiteless.Run(maxExecs, maxDur); err != nil {
			return nil, err
		}
		out = append(out, GrowthResult{Name: name, Stats: suiteless.Stats()})
	}
	return out, nil
}

// Pipeline runs both phases: suite generation with the given fuzzing
// configuration and budget, then compliance testing with the runner.
func Pipeline(cfg fuzz.Config, maxExecs uint64, maxDur time.Duration, runner *compliance.Runner) (*compliance.Suite, *compliance.Report, fuzz.Stats, error) {
	suite, st, err := GenerateSuite(cfg, maxExecs, maxDur)
	if err != nil {
		return nil, nil, st, err
	}
	if runner == nil {
		runner = compliance.DefaultRunner()
	}
	rep, err := runner.Run(suite)
	if err != nil {
		return suite, nil, st, err
	}
	return suite, rep, st, nil
}
