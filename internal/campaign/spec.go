// Package campaign is the unified campaign layer: one serializable job
// description (JobSpec), one execution core (Execute) and one lifecycle
// machine (State) shared by the rvfuzz and rvcompliance CLIs and the
// rvnegtestd daemon. A CLI run is "build one spec, execute, render"; a
// daemon run is the same spec traveling through the persistent job store
// and the scheduler — and because both sides call the same Execute with
// the same engine configuration, the artifacts they produce (suites,
// reports, stats JSON, checkpoints) are byte-identical by construction.
package campaign

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/sut"
	"rvnegtest/internal/template"
)

// Kind selects the engine a job runs on.
type Kind string

const (
	// KindFuzz is Phase A: coverage-guided suite generation.
	KindFuzz Kind = "fuzz"
	// KindCompliance is Phase B: run a suite across simulators and
	// compare signatures against the reference.
	KindCompliance Kind = "compliance"
)

// SUTSpec names one external simulator-under-test adapter column
// (a serializable subset of sut.Spec).
type SUTSpec struct {
	// Name is the report column name.
	Name string `json:"name"`
	// Argv is the adapter command line (Argv[0] is the binary).
	Argv []string `json:"argv"`
}

// JobSpec is the serializable description of one campaign job. It is the
// single source of truth for what runs: the CLIs build one from flags,
// the daemon accepts one as the POST /api/v1/jobs body, and Execute
// turns it into engine configuration. Every field that influences
// results is here; everything environmental (directories, telemetry)
// lives in Env, so the same spec always produces the same artifacts.
type JobSpec struct {
	Kind Kind `json:"kind"`

	// Suite selects the input material. For fuzz jobs it is the
	// template family to generate for ("user" or "trap"; empty means
	// user). For compliance jobs it is either a family name (generate a
	// suite first, budgeted by Execs) or a path to a saved suite file.
	Suite string `json:"suite,omitempty"`
	// Cov is the coverage configuration for generation ("v0".."v3";
	// empty means v3).
	Cov string `json:"cov,omitempty"`
	// ISA is the foundation simulator's configuration for fuzz jobs
	// (empty means RV32GC).
	ISA string `json:"isa,omitempty"`
	// Seed makes generation deterministic (default 1).
	Seed int64 `json:"seed"`
	// Execs is the generation budget: per-worker executions for fuzz
	// jobs, the -generate budget for compliance jobs that name a
	// family. Daemon jobs must be exec-bounded — a wall-time budget
	// cannot resume deterministically.
	Execs uint64 `json:"execs,omitempty"`
	// Workers is the engine parallelism: independent fuzzers whose
	// corpora merge in worker order, or compliance engine shards. For
	// fuzz jobs the worker count shapes the corpus (each worker owns a
	// seed); for compliance it never changes the report.
	Workers int `json:"workers,omitempty"`
	// CaseTimeoutSec is the per-case wall-clock watchdog in seconds
	// (0 disables).
	CaseTimeoutSec float64 `json:"case_timeout_sec,omitempty"`
	// CheckpointEvery is the fuzz engine's periodic checkpoint interval
	// in executions (0 means the engine default, 100000).
	CheckpointEvery uint64 `json:"checkpoint_every,omitempty"`
	// Minimize is accepted and ignored, so that clients which still send
	// the key are not refused: a fuzz job minimizes exactly when it
	// merges two or more workers' corpora (fuzz.Campaign).
	Minimize bool `json:"minimize,omitempty"`
	// SeedSuite optionally seeds a fuzz campaign with a previously
	// generated suite file.
	SeedSuite string `json:"seed_suite,omitempty"`
	// Ablation switches; both change what the fuzzer finds.
	DisableCustomMutator bool `json:"disable_custom_mutator,omitempty"`
	DisableFilter        bool `json:"disable_filter,omitempty"`

	// Compliance-only fields.

	// Ref is the reference simulator (empty means riscvOVPsim).
	Ref string `json:"ref,omitempty"`
	// Sims are the built-in simulators under test. Nil means the
	// paper's default set; an explicit empty slice selects none
	// (external-only campaigns). Deliberately not omitempty: the
	// empty-but-present form must round-trip through the job store.
	Sims []string `json:"sims"`
	// ISAs are the configurations to test (Table I rows; empty means
	// RV32I, RV32IMC, RV32GC).
	ISAs []string `json:"isas,omitempty"`
	// BreakerThreshold is the consecutive-harness-fault trip count
	// (0 default, <0 disables).
	BreakerThreshold int `json:"breaker_threshold,omitempty"`
	// External adds out-of-process SUT adapter columns.
	External []SUTSpec `json:"external,omitempty"`
	// SUTTimeoutSec / SUTRetries / SUTHalfOpen tune external adapter
	// supervision (zero values select the sut package defaults).
	SUTTimeoutSec float64 `json:"sut_timeout_sec,omitempty"`
	SUTRetries    int     `json:"sut_retries,omitempty"`
	SUTHalfOpen   int     `json:"sut_half_open,omitempty"`
}

// errSpec wraps validation problems so API layers can map them to 4xx.
var ErrInvalidSpec = errors.New("campaign: invalid job spec")

func specErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalidSpec, fmt.Sprintf(format, args...))
}

// Normalize fills defaulted fields in place so that specs compare and
// serialize canonically (a normalized spec validates iff the original
// did).
func (s *JobSpec) Normalize() {
	if s.Seed == 0 {
		s.Seed = 1
	}
	if s.Cov == "" {
		s.Cov = "v3"
	}
	switch s.Kind {
	case KindFuzz:
		if s.Suite == "" {
			s.Suite = "user"
		}
		if s.ISA == "" {
			s.ISA = "RV32GC"
		}
		if s.Workers < 1 {
			s.Workers = 1
		}
	case KindCompliance:
		if s.Ref == "" {
			s.Ref = "riscvOVPsim"
		}
		if s.Sims == nil {
			s.Sims = []string{"Spike", "VP", "sail-riscv", "GRIFT"}
		}
		if len(s.ISAs) == 0 {
			s.ISAs = []string{"RV32I", "RV32IMC", "RV32GC"}
		}
	}
}

// Validate checks the spec against the engines' vocabulary: unknown
// names, missing budgets and nonsense combinations are caught here, so
// the daemon can reject bad submissions with a 4xx instead of failing a
// job later. Specs should be Normalized first.
func (s *JobSpec) Validate() error {
	switch s.Kind {
	case KindFuzz, KindCompliance:
	case "":
		return specErrf("missing kind (want %q or %q)", KindFuzz, KindCompliance)
	default:
		return specErrf("unknown kind %q (want %q or %q)", s.Kind, KindFuzz, KindCompliance)
	}
	if _, ok := coverage.ByName(s.Cov); !ok {
		return specErrf("unknown coverage configuration %q", s.Cov)
	}
	if s.Workers < 0 && s.Kind == KindFuzz {
		return specErrf("fuzz workers must be >= 1, got %d", s.Workers)
	}
	if s.CaseTimeoutSec < 0 {
		return specErrf("case timeout must be >= 0, got %v", s.CaseTimeoutSec)
	}
	switch s.Kind {
	case KindFuzz:
		if _, ok := template.ParseFamily(s.Suite); !ok {
			return specErrf("unknown suite family %q (want user or trap)", s.Suite)
		}
		if s.ISA != "" {
			if _, err := isa.ParseConfig(s.ISA); err != nil {
				return specErrf("%v", err)
			}
		}
	case KindCompliance:
		if _, ok := sim.ByName(s.Ref); !ok {
			return specErrf("unknown reference simulator %q", s.Ref)
		}
		for _, name := range s.Sims {
			if _, ok := sim.ByName(name); !ok {
				return specErrf("unknown simulator %q", name)
			}
		}
		for _, name := range s.ISAs {
			if _, err := isa.ParseConfig(name); err != nil {
				return specErrf("%v", err)
			}
		}
		if len(s.Sims) == 0 && len(s.External) == 0 {
			return specErrf("no simulators under test: set sims and/or external")
		}
		seen := map[string]bool{}
		for _, e := range s.External {
			if e.Name == "" || len(e.Argv) == 0 {
				return specErrf("external column needs a name and a command")
			}
			if seen[e.Name] {
				return specErrf("duplicate external column %q", e.Name)
			}
			seen[e.Name] = true
		}
	}
	return nil
}

// ValidateJob applies the stricter daemon-grade rules on top of
// Validate: scheduled jobs must be exec-bounded (resumable across
// restarts) and self-contained.
func (s *JobSpec) ValidateJob() error {
	if err := s.Validate(); err != nil {
		return err
	}
	if s.Kind == KindFuzz && s.Execs == 0 {
		return specErrf("fuzz job needs an execs budget (wall-time budgets cannot resume deterministically)")
	}
	if s.Kind == KindCompliance && s.Execs == 0 {
		if _, isFamily := template.ParseFamily(s.Suite); s.Suite == "" || isFamily {
			return specErrf("compliance job needs a suite file, or a family name with an execs budget")
		}
	}
	return nil
}

// Clone returns a deep copy (the scheduler hands snapshots to the HTTP
// layer while the original keeps evolving).
func (s JobSpec) Clone() JobSpec {
	c := s
	c.Sims = append([]string(nil), s.Sims...)
	c.ISAs = append([]string(nil), s.ISAs...)
	c.External = make([]SUTSpec, len(s.External))
	for i, e := range s.External {
		c.External[i] = SUTSpec{Name: e.Name, Argv: append([]string(nil), e.Argv...)}
	}
	return c
}

// caseTimeout converts the serialized seconds into the engine duration.
func (s *JobSpec) caseTimeout() time.Duration {
	return time.Duration(s.CaseTimeoutSec * float64(time.Second))
}

// family resolves the template family a fuzz (or generated compliance)
// job targets.
func (s *JobSpec) family() template.Family {
	f, _ := template.ParseFamily(s.Suite)
	return f
}

// fuzzConfig builds the engine configuration shared by fuzz jobs and
// compliance-generation — the one place flags/spec fields map onto
// fuzz.Config, so the CLIs and the daemon cannot diverge.
func (s *JobSpec) fuzzConfig() (fuzz.Config, error) {
	cfg := fuzz.DefaultConfig()
	opts, ok := coverage.ByName(s.Cov)
	if !ok {
		return cfg, specErrf("unknown coverage configuration %q", s.Cov)
	}
	cfg.Coverage = opts
	if s.ISA != "" {
		isaCfg, err := isa.ParseConfig(s.ISA)
		if err != nil {
			return cfg, err
		}
		cfg.ISA = isaCfg
	}
	cfg.Family = s.family()
	cfg.Seed = s.Seed
	cfg.DisableCustomMutator = s.DisableCustomMutator
	cfg.DisableFilter = s.DisableFilter
	cfg.CaseTimeout = s.caseTimeout()
	return cfg, nil
}

// sutSpecs expands the serializable external columns into adapter specs
// with the job's supervision tuning applied.
func (s *JobSpec) sutSpecs() []sut.Spec {
	if len(s.External) == 0 {
		return nil
	}
	specs := make([]sut.Spec, len(s.External))
	for i, e := range s.External {
		specs[i] = sut.Spec{
			Name:       e.Name,
			Argv:       append([]string(nil), e.Argv...),
			RunTimeout: time.Duration(s.SUTTimeoutSec * float64(time.Second)),
			Retries:    s.SUTRetries,
		}
	}
	return specs
}

// ParseSUT parses a NAME=COMMAND [ARGS...] column description (the -sut
// flag syntax; the command is split on whitespace).
func ParseSUT(v string) (SUTSpec, error) {
	name, cmd, ok := strings.Cut(v, "=")
	name = strings.TrimSpace(name)
	argv := strings.Fields(cmd)
	if !ok || name == "" || len(argv) == 0 {
		return SUTSpec{}, fmt.Errorf("want NAME=COMMAND [ARGS...], got %q", v)
	}
	return SUTSpec{Name: name, Argv: argv}, nil
}
