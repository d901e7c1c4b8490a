package campaign

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/compliance"
	"rvnegtest/internal/core"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// ErrInterrupted reports that a job stopped on context cancellation after
// checkpointing its state; executing again with the same spec and
// checkpoint directory continues bit-identically.
var ErrInterrupted = errors.New("campaign: interrupted")

// Env is everything environmental about one execution: where durable
// state and fault artifacts live, where telemetry flows, and the
// CLI-only wall-time budget. Env never influences result bytes — only
// whether and where they are persisted — which is what keeps a daemon
// job and a CLI run with the same JobSpec byte-identical.
type Env struct {
	// CheckpointDir enables checkpoint/resume: engine state persists
	// under it and an existing checkpoint is resumed instead of
	// starting over. Empty disables durable state.
	CheckpointDir string
	// QuarantineDir, when set, receives inputs that triggered harness
	// faults.
	QuarantineDir string
	// WallBudget bounds suite generation by wall time: every fuzz
	// worker, or a compliance job's generation step (the CLIs'
	// -seconds; incompatible with checkpointing, zero for daemon jobs).
	WallBudget time.Duration
	// Obs receives engine telemetry (nil disables).
	Obs *obs.Registry
	// Events receives lifecycle events (nil disables).
	Events *obs.EventLog
	// Progress, when non-nil, receives compliance shard-completion
	// callbacks (the CLI's -progress rendering).
	Progress func(compliance.ProgressEvent)
}

// Result is one executed job's outcome. Fuzz jobs fill Suite and the
// fuzzer stats; compliance jobs fill Report (plus GenStats when the
// suite was generated first).
type Result struct {
	Kind Kind

	// Suite is the generated suite (fuzz jobs), or the suite a
	// compliance job ran (loaded or generated) — kept for example
	// rendering, never written as a compliance artifact.
	Suite *compliance.Suite
	// WorkerStats are the per-worker fuzzer stats.
	WorkerStats []fuzz.Stats
	// TotalExecs / TotalFaults / Filter aggregate WorkerStats.
	TotalExecs  uint64
	TotalFaults uint64
	Filter      analysis.Stats
	// SeedCases is the number of prior cases loaded from SeedSuite.
	SeedCases int

	// Report is the compliance report (compliance jobs).
	Report *compliance.Report
	// RunStats describes the compliance engine run.
	RunStats compliance.RunStats
	// GenStats is set when a compliance job generated its suite first.
	GenStats *fuzz.Stats
}

// Degraded reports whether the outcome carries harness faults: a
// degraded compliance report, or quarantined fuzz inputs. Maps to the
// CLIs' exit status 2 and the daemon's degraded job state.
func (r *Result) Degraded() bool {
	if r == nil {
		return false
	}
	if r.Report != nil && r.Report.Degraded() {
		return true
	}
	return r.Kind == KindFuzz && r.TotalFaults > 0
}

// Execute runs one job to completion (or interruption) on the calling
// goroutine. It is the only path from a JobSpec to engine invocations:
// rvfuzz and rvcompliance call it directly, the daemon scheduler calls
// it per slot — so for a given spec the artifacts are identical no
// matter who drove it.
func Execute(ctx context.Context, spec JobSpec, env Env) (*Result, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	switch spec.Kind {
	case KindFuzz:
		return executeFuzz(ctx, spec, env)
	default:
		return executeCompliance(ctx, spec, env)
	}
}

func executeFuzz(ctx context.Context, spec JobSpec, env Env) (*Result, error) {
	cfg, err := spec.fuzzConfig()
	if err != nil {
		return nil, err
	}
	cfg.QuarantineDir = env.QuarantineDir
	cfg.Obs = env.Obs
	cfg.Events = env.Events
	res := &Result{Kind: KindFuzz}
	if spec.SeedSuite != "" {
		prior, err := compliance.LoadSuite(spec.SeedSuite)
		if err != nil {
			return nil, fmt.Errorf("loading seed suite: %w", err)
		}
		cfg.Seeds = prior.Cases
		res.SeedCases = len(prior.Cases)
	}

	if env.CheckpointDir != "" && env.WallBudget != 0 {
		return nil, specErrf("a wall-time budget cannot be combined with checkpointing; resume needs a deterministic execution bound")
	}
	if spec.Execs == 0 && env.WallBudget == 0 {
		return nil, specErrf("fuzz job needs an executions budget (per worker) or a wall-time budget")
	}
	suite, stats, err := core.BuildSuite(ctx, cfg, fuzz.CampaignConfig{
		Workers:         spec.Workers,
		ExecsEach:       spec.Execs,
		WallBudget:      env.WallBudget,
		CheckpointDir:   env.CheckpointDir,
		CheckpointEvery: spec.CheckpointEvery,
	})
	if errors.Is(err, fuzz.ErrInterrupted) {
		return nil, ErrInterrupted
	}
	if err != nil {
		return nil, err
	}
	res.Suite = suite
	res.WorkerStats = stats
	for _, s := range stats {
		res.TotalExecs += s.Execs
		res.TotalFaults += s.HarnessFaults
		res.Filter.Merge(s.Filter)
	}
	return res, nil
}

// genConfig is the compliance-generation fuzzing configuration: exactly
// the fields the rvcompliance CLI has always applied to -generate
// (coverage, seed, family) — deliberately not the fuzz-job ablation and
// timeout knobs, so generated suites stay comparable across tools.
func (s *JobSpec) genConfig() (fuzz.Config, error) {
	cfg := fuzz.DefaultConfig()
	opts, ok := coverage.ByName(s.Cov)
	if !ok {
		return cfg, specErrf("unknown coverage configuration %q", s.Cov)
	}
	cfg.Coverage = opts
	cfg.Seed = s.Seed
	cfg.Family = s.family()
	return cfg, nil
}

// ComplianceSuite is a compliance job's suite step: it loads the suite
// file spec.Suite names or, when spec.Suite is a family name or empty,
// generates a suite with spec's Cov, Seed and family within spec.Execs
// executions and wall (zero disables a bound; one must be set). The
// stats are non-nil only for a generated suite.
func ComplianceSuite(spec JobSpec, wall time.Duration) (*compliance.Suite, *fuzz.Stats, error) {
	if _, isFamily := template.ParseFamily(spec.Suite); spec.Suite != "" && !isFamily {
		suite, err := compliance.LoadSuite(spec.Suite)
		if err != nil {
			return nil, nil, fmt.Errorf("loading suite: %w", err)
		}
		return suite, nil, nil
	}
	if spec.Execs == 0 && wall == 0 {
		return nil, nil, specErrf("compliance job needs a suite file, or a family name with an execs budget")
	}
	cfg, err := spec.genConfig()
	if err != nil {
		return nil, nil, err
	}
	suite, st, err := core.GenerateSuite(cfg, spec.Execs, wall)
	if err != nil {
		return nil, nil, err
	}
	return suite, &st, nil
}

func executeCompliance(ctx context.Context, spec JobSpec, env Env) (*Result, error) {
	suite, gen, err := ComplianceSuite(spec, env.WallBudget)
	if err != nil {
		return nil, err
	}
	res := &Result{Kind: KindCompliance, Suite: suite, GenStats: gen}

	runner := &compliance.Runner{
		MaxExamples:      10,
		Workers:          spec.Workers,
		CaseTimeout:      spec.caseTimeout(),
		BreakerThreshold: spec.BreakerThreshold,
		QuarantineDir:    env.QuarantineDir,
		External:         spec.sutSpecs(),
		HalfOpenAfter:    spec.SUTHalfOpen,
		Obs:              env.Obs,
		Events:           env.Events,
		Progress:         env.Progress,
	}
	ref, ok := sim.ByName(spec.Ref)
	if !ok {
		return nil, specErrf("unknown reference simulator %q", spec.Ref)
	}
	runner.Ref = ref
	for _, name := range spec.Sims {
		v, ok := sim.ByName(name)
		if !ok {
			return nil, specErrf("unknown simulator %q", name)
		}
		runner.SUTs = append(runner.SUTs, v)
	}
	for _, name := range spec.ISAs {
		cfg, err := isa.ParseConfig(name)
		if err != nil {
			return nil, err
		}
		runner.Configs = append(runner.Configs, cfg)
	}

	var rep *compliance.Report
	if env.CheckpointDir != "" {
		rep, err = runner.RunResumable(ctx, suite, env.CheckpointDir)
	} else {
		rep, err = runner.RunContext(ctx, suite)
	}
	if errors.Is(err, compliance.ErrInterrupted) {
		return nil, ErrInterrupted
	}
	if err != nil {
		return nil, err
	}
	res.Report = rep
	res.RunStats = runner.Stats
	return res, nil
}

// EncodeFuzzStats is the canonical stats-JSON artifact: deterministic
// per-worker campaign stats (wall-clock fields zeroed) plus the final
// case count. The rvfuzz -stats-json flag and the daemon's stats.json
// artifact both emit exactly these bytes.
//
// The bytes are json.MarshalIndent(payload, "", "  ") and a newline, for
// the payload {"workers": the workers' Deterministic stats, "cases":
// cases}. They are written into one buffer sized up front, because the
// trace holds one point per corpus addition, and MarshalIndent's compact
// and indented buffers allocate about four times the output.
func EncodeFuzzStats(workerStats []fuzz.Stats, cases int) ([]byte, error) {
	filters := make([][]byte, len(workerStats))
	size := 64
	for i, s := range workerStats {
		f, err := json.MarshalIndent(s.Filter, "      ", "  ")
		if err != nil {
			return nil, err
		}
		filters[i] = f
		size += statsFieldsMax + len(f)
		for _, pt := range s.Trace {
			size += tracePointText + decimalLen(pt.Execs) + decimalLen(uint64(pt.TestCases))
		}
	}
	b := make([]byte, 0, size)
	b = append(b, "{\n  \"workers\": ["...)
	for i, s := range workerStats {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, "\n    {\n      \"execs\": "...)
		b = strconv.AppendUint(b, s.Execs, 10)
		b = append(b, ",\n      \"dropped\": "...)
		b = strconv.AppendUint(b, s.Dropped, 10)
		b = append(b, ",\n      \"test_cases\": "...)
		b = strconv.AppendInt(b, int64(s.TestCases), 10)
		b = append(b, ",\n      \"crashes\": "...)
		b = strconv.AppendUint(b, s.Crashes, 10)
		b = append(b, ",\n      \"timeouts\": "...)
		b = strconv.AppendUint(b, s.Timeouts, 10)
		if s.HarnessFaults != 0 {
			b = append(b, ",\n      \"harness_faults\": "...)
			b = strconv.AppendUint(b, s.HarnessFaults, 10)
		}
		// Deterministic zeroes the wall-clock fields, and an empty
		// session_duration_ns is omitted.
		b = append(b, ",\n      \"duration_ns\": 0,\n      \"execs_per_sec\": 0,\n      \"cov_points\": "...)
		b = strconv.AppendInt(b, int64(s.CovPoints), 10)
		b = append(b, ",\n      \"cov_bits\": "...)
		b = strconv.AppendInt(b, int64(s.CovBits), 10)
		if len(s.Trace) > 0 {
			b = append(b, ",\n      \"trace\": ["...)
			for j, pt := range s.Trace {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, "\n        {\n          \"Execs\": "...)
				b = strconv.AppendUint(b, pt.Execs, 10)
				b = append(b, ",\n          \"TestCases\": "...)
				b = strconv.AppendInt(b, int64(pt.TestCases), 10)
				b = append(b, "\n        }"...)
			}
			b = append(b, "\n      ]"...)
		}
		b = append(b, ",\n      \"filter\": "...)
		b = append(b, filters[i]...)
		b = append(b, "\n    }"...)
	}
	if len(workerStats) > 0 {
		b = append(b, "\n  "...)
	}
	b = append(b, "],\n  \"cases\": "...)
	b = strconv.AppendInt(b, int64(cases), 10)
	return append(b, "\n}\n"...), nil
}

const (
	// statsFieldsMax bounds the text of a worker's stats other than its
	// trace points and its filter object.
	statsFieldsMax = 512
	// tracePointText is the text of an indented trace point other than
	// its two numbers, the separating comma included.
	tracePointText = 66
)

// decimalLen is the number of decimal digits of v.
func decimalLen(v uint64) int {
	n := 1
	for ; v >= 10; v /= 10 {
		n++
	}
	return n
}

// Artifact file names under a job's artifacts directory.
const (
	ArtifactSuite      = "suite.txt"   // fuzz: the generated suite
	ArtifactFuzzStats  = "stats.json"  // fuzz: deterministic campaign stats
	ArtifactReport     = "report.txt"  // compliance: rendered Table-I report
	ArtifactReportJSON = "report.json" // compliance: machine-readable report
)

// WriteArtifacts persists the result's canonical artifact files into
// dir, creating it as needed. The bytes match what the equivalent CLI
// invocation would have written (suite.Save, -stats-json, -json). Each
// file is replaced atomically (resilience.WriteFileAtomic), so an
// interrupted write leaves the previous file or none, never a torn one.
func (r *Result) WriteArtifacts(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	write := func(name string, data []byte) error {
		return resilience.WriteFileAtomic(filepath.Join(dir, name), data)
	}
	switch r.Kind {
	case KindFuzz:
		if err := write(ArtifactSuite, []byte(r.Suite.Format())); err != nil {
			return err
		}
		stats, err := EncodeFuzzStats(r.WorkerStats, len(r.Suite.Cases))
		if err != nil {
			return err
		}
		return write(ArtifactFuzzStats, stats)
	default:
		if err := write(ArtifactReport, []byte(r.Report.Render())); err != nil {
			return err
		}
		raw, err := r.Report.JSON()
		if err != nil {
			return err
		}
		return write(ArtifactReportJSON, append(raw, '\n'))
	}
}
