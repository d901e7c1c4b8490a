// Package fuzz implements the coverage-guided test-suite generation engine
// of the paper (section IV): the counterpart of LLVM libFuzzer, driving
// bytestream inputs through the static filter into an instrumented
// instruction-set simulator and collecting every input that produces new
// coverage as a compliance test case.
//
// The engine reproduces the libFuzzer mechanics the paper relies on:
// a corpus of interesting inputs, randomly stacked byte-level mutations,
// gradual input-length growth when coverage saturates (-len_control), and
// a custom instruction-aware mutator invoked with equal probability to the
// generic ones (section IV-D).
//
// Campaigns are resilient: a panicking foundation simulator is isolated
// per step, a wedged run is reaped by a wall-clock watchdog (the target is
// rebuilt, the coverage frontier preserved), faulting inputs are
// quarantined for triage, and the whole campaign state checkpoints to
// disk and resumes bit-identically (checkpoint.go).
package fuzz

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/filter"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// Config parameterizes a fuzzing campaign.
type Config struct {
	// Coverage selects the guidance signals (the paper's v0..v3).
	Coverage coverage.Options
	// ISA is the foundation simulator's configuration (the paper fuzzes
	// on the 32-bit VP with the full RV32GC envelope).
	ISA isa.Config
	// Family selects the template family the campaign generates for. The
	// zero value (user) reproduces the paper's campaign byte-for-byte;
	// the trap family runs the recording-handler template and switches
	// the static filter to trap-tolerant semantics, so deliberate traps
	// become corpus content instead of drop reasons.
	Family template.Family
	// MaxLen bounds the bytestream length (the paper uses 64 bytes).
	MaxLen int
	// LenControl is the number of executions without new coverage before
	// the current length limit grows (the paper passes -len_control=10000
	// to slow libFuzzer's growth).
	LenControl int
	// Seed makes the campaign deterministic.
	Seed int64
	// CustomMutatorProb is the probability of using the instruction-aware
	// mutator for a given input (the paper attaches it "with equal
	// probability to the existing mutators").
	CustomMutatorProb float64
	// DisableFilter bypasses the static filter (ablation only: breaks the
	// no-spurious-mismatch guarantee).
	DisableFilter bool
	// DisableCustomMutator turns off instruction-aware mutation
	// (ablation).
	DisableCustomMutator bool
	// Seeds is an optional seed corpus (e.g. a previously generated
	// suite): the inputs are replayed first, collecting those that
	// produce coverage, before mutation-based generation begins —
	// libFuzzer's corpus-directory behaviour, the basis of efficient
	// continuous re-runs.
	Seeds [][]byte

	// CaseTimeout is a wall-clock watchdog on each simulator run, on top
	// of the instruction limit: a wedged run is reaped, counted as a
	// timeout and a harness fault, and the target rebuilt. Zero disables
	// the watchdog (runs execute inline, panic isolation only).
	CaseTimeout time.Duration
	// QuarantineDir, when set, receives every input that triggered a
	// harness fault (panic or watchdog timeout) together with the fault
	// detail.
	QuarantineDir string
	// NewTarget overrides the foundation-simulator factory (resilience
	// tests inject sim.Faulty here). Nil uses the reference model.
	NewTarget func(p template.Platform) (sim.HookedSim, error)

	// Obs, when non-nil, receives campaign telemetry: counters, gauges
	// and per-stage latency histograms (package obs). Telemetry is
	// observational only — it never influences campaign decisions, is
	// excluded from checkpoints and from the Fingerprint, and a nil
	// registry costs nothing on the hot path.
	Obs *obs.Registry
	// Events, when non-nil, receives structured campaign lifecycle
	// events (corpus adds, crashes, quarantines, checkpoints) as an
	// NDJSON stream. Emission is serialized; safe to share across
	// workers.
	Events *obs.EventLog
	// Worker labels this fuzzer's telemetry events with a campaign
	// worker index (set by Campaign). It has no effect on campaign
	// behaviour and is excluded from the Fingerprint.
	Worker int
}

// DefaultConfig mirrors the paper's campaign settings with v3 coverage.
func DefaultConfig() Config {
	return Config{
		Coverage:          coverage.V3(),
		ISA:               isa.RV32GC,
		MaxLen:            64,
		LenControl:        10000,
		Seed:              1,
		CustomMutatorProb: 0.5,
	}
}

// TracePoint is one sample of the test-case growth curve (Fig. 4).
type TracePoint struct {
	Execs     uint64
	TestCases int
}

// Stats summarizes a campaign.
type Stats struct {
	Execs     uint64 `json:"execs"`
	Dropped   uint64 `json:"dropped"` // filtered out before execution
	TestCases int    `json:"test_cases"`
	Crashes   uint64 `json:"crashes"`
	Timeouts  uint64 `json:"timeouts"`
	// HarnessFaults counts steps that failed at the harness level — a
	// panic reaped by the isolation layer or a wall-clock watchdog
	// timeout — as opposed to modeled crash/timeout outcomes the
	// simulator reported through its own error handling.
	HarnessFaults uint64 `json:"harness_faults,omitempty"`
	// Duration is the cumulative stepping time of the campaign across
	// every session (resumed campaigns carry the pre-interrupt elapsed
	// time forward from the checkpoint).
	Duration time.Duration `json:"duration_ns"`
	// SessionDuration is the stepping time of the current process only;
	// it backs ExecsPerSec so a resumed campaign reports its live rate
	// instead of one diluted by pre-interrupt wall-clock.
	SessionDuration time.Duration `json:"session_duration_ns,omitempty"`
	// ExecsPerSec is the live execution rate: executions performed in
	// this session divided by SessionDuration. For a fresh campaign the
	// session is the whole campaign, so it equals Execs/Duration.
	ExecsPerSec float64        `json:"execs_per_sec"`
	CovPoints   int            `json:"cov_points"` // coverage points defined
	CovBits     int            `json:"cov_bits"`   // bucket bits discovered
	Trace       []TracePoint   `json:"trace,omitempty"`
	Filter      analysis.Stats `json:"filter"` // drop-reason histogram / acceptance
}

// Deterministic returns the stats with the wall-clock-dependent fields
// zeroed, so a resumed campaign can be compared byte-for-byte against an
// uninterrupted one.
func (s Stats) Deterministic() Stats {
	s.Duration = 0
	s.SessionDuration = 0
	s.ExecsPerSec = 0
	return s
}

// Fuzzer drives one campaign.
type Fuzzer struct {
	cfg      Config
	src      *resilience.RNG // serializable source behind rng
	rng      *rand.Rand
	flt      *filter.Filter
	col      *coverage.Collector
	target   sim.HookedSim
	platform template.Platform
	mut      *mutator
	quar     *resilience.Quarantine

	pending [][]byte // seed corpus not yet replayed
	corpus  [][]byte
	trace   []TracePoint
	fstats  analysis.Stats
	execs   uint64
	dropped uint64
	crashes uint64
	timeout uint64
	hfaults uint64
	stall   int
	curLen  int
	elapsed time.Duration
	broken  error // set when the target could not be rebuilt after a wedge

	// sessElapsed and baseExecs scope the live execution rate to the
	// current process: a resumed fuzzer restores `elapsed` and `execs`
	// cumulatively from the checkpoint, which must not dilute the rate
	// this session actually achieves.
	sessElapsed time.Duration
	baseExecs   uint64

	tel *telemetry // nil when telemetry is disabled (zero-cost path)
}

// New prepares a fuzzer. The foundation simulator is the reference model
// on the default platform unless Config.NewTarget overrides it.
func New(cfg Config) (*Fuzzer, error) {
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 64
	}
	if cfg.MaxLen > template.DefaultLayout.MaxBytes() {
		return nil, fmt.Errorf("fuzz: MaxLen %d exceeds the injection area (%d bytes)",
			cfg.MaxLen, template.DefaultLayout.MaxBytes())
	}
	if cfg.LenControl <= 0 {
		cfg.LenControl = 10000
	}
	if cfg.CustomMutatorProb == 0 && !cfg.DisableCustomMutator {
		cfg.CustomMutatorProb = 0.5
	}
	if cfg.ISA.Ext == 0 {
		cfg.ISA = isa.RV32GC
	}
	platform := template.PlatformFor(cfg.Family, cfg.ISA)
	target, err := makeTarget(cfg, platform)
	if err != nil {
		return nil, err
	}
	src := resilience.NewRNG(cfg.Seed)
	rng := rand.New(src)
	f := &Fuzzer{
		cfg:      cfg,
		src:      src,
		rng:      rng,
		flt:      &filter.Filter{MaxLen: cfg.MaxLen, Trap: cfg.Family == template.FamilyTrap},
		col:      coverage.NewCollector(cfg.Coverage),
		target:   target,
		platform: platform,
		mut:      newMutator(rng),
		quar:     resilience.NewQuarantine(cfg.QuarantineDir),
		curLen:   8,
		tel:      newTelemetry(cfg),
	}
	for _, s := range cfg.Seeds {
		if len(s) <= cfg.MaxLen {
			f.pending = append(f.pending, s)
		}
	}
	return f, nil
}

func makeTarget(cfg Config, p template.Platform) (sim.HookedSim, error) {
	if cfg.NewTarget != nil {
		return cfg.NewTarget(p)
	}
	return sim.New(sim.Reference, p)
}

// rebuildTarget replaces a target poisoned by an abandoned (wedged) run
// with a fresh instance and a fresh collector carrying the old coverage
// frontier. The abandoned goroutine keeps only the old collector's
// per-run state, so the new one races with nothing.
func (f *Fuzzer) rebuildTarget() {
	target, err := makeTarget(f.cfg, f.platform)
	if err != nil {
		f.broken = fmt.Errorf("fuzz: rebuilding target after wedge: %w", err)
		return
	}
	frontier := f.col.Map.Frontier()
	col := coverage.NewCollector(f.cfg.Coverage)
	if err := col.Map.RestoreFrontier(frontier); err != nil {
		f.broken = fmt.Errorf("fuzz: restoring frontier after wedge: %w", err)
		return
	}
	f.target = target
	f.col = col
}

// Step performs one fuzzer execution; it reports whether the input was
// collected as a new test case.
func (f *Fuzzer) Step() bool {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		f.elapsed += d
		f.sessElapsed += d
	}()
	f.execs++
	tel := f.tel
	if tel != nil {
		tel.execs.Inc()
	}

	input := f.nextInput()
	var t time.Time
	if tel != nil {
		t = time.Now()
		tel.stMutate.Observe(t.Sub(start))
	}
	if !f.cfg.DisableFilter {
		res := f.flt.Check(input)
		f.fstats.Record(res.Reason)
		if tel != nil {
			// One clock read closes the filter stage and opens execute.
			now := time.Now()
			tel.stFilter.Observe(now.Sub(t))
			t = now
		}
		if !res.Accepted {
			// Dropped inputs return no coverage, so the fuzzer never
			// collects them (the paper's key automation property).
			f.dropped++
			if tel != nil {
				tel.drops[res.Reason].Inc()
			}
			return false
		}
	}

	target, col := f.target, f.col
	out, rec, timedOut := resilience.Guard(f.cfg.CaseTimeout, func() sim.Outcome {
		return target.RunHooked(input, col)
	})
	if tel != nil {
		// One clock read closes execute and opens the merge stage.
		now := time.Now()
		tel.stExec.Observe(now.Sub(t))
		t = now
	}
	switch {
	case rec != nil:
		// The simulator unwound past its own recovery — a harness-level
		// fault, isolated here so the campaign continues.
		f.crashes++
		f.hfaults++
		if tel != nil {
			tel.crashes.Inc()
			tel.hfaults.Inc()
			tel.event(obs.Event{Type: "quarantine", Execs: f.execs, Detail: "panic: " + rec.Msg})
		}
		f.quarantineWarn(input, "panic: "+rec.Msg+"\n\n"+rec.Stack)
		f.col.Map.DiscardRun()
		return false
	case timedOut:
		// Wedged run reaped by the watchdog; its goroutine still owns the
		// old target and collector, so both are replaced.
		f.timeout++
		f.hfaults++
		if tel != nil {
			tel.timeout.Inc()
			tel.hfaults.Inc()
			tel.event(obs.Event{Type: "quarantine", Execs: f.execs,
				Detail: fmt.Sprintf("watchdog: no result within %v", f.cfg.CaseTimeout)})
		}
		f.quarantineWarn(input, fmt.Sprintf("watchdog: no result within %v", f.cfg.CaseTimeout))
		f.rebuildTarget()
		return false
	case out.Crashed:
		f.crashes++
		if tel != nil {
			tel.crashes.Inc()
			tel.event(obs.Event{Type: "crash", Execs: f.execs, Detail: out.CrashMsg})
		}
		f.col.Map.DiscardRun()
		return false
	case out.TimedOut:
		f.timeout++
		if tel != nil {
			tel.timeout.Inc()
		}
		f.col.Map.DiscardRun()
		return false
	}
	if tel != nil {
		tel.traps.Add(out.Traps)
	}
	novel := f.col.Map.MergeNew()
	if tel != nil {
		tel.stCov.ObserveSince(t)
	}
	if !novel {
		f.stall++
		if f.stall >= f.cfg.LenControl && f.curLen < f.cfg.MaxLen {
			f.curLen += 4
			f.stall = 0
		}
		return false
	}
	f.stall = 0
	f.corpus = append(f.corpus, append([]byte(nil), input...))
	f.trace = append(f.trace, TracePoint{Execs: f.execs, TestCases: len(f.corpus)})
	if tel != nil {
		tel.adds.Inc()
		tel.corpusSize.Set(int64(len(f.corpus)))
		tel.covBits.Set(int64(f.col.Map.BucketBits()))
		tel.event(obs.Event{Type: "corpus_add", Execs: f.execs, Corpus: len(f.corpus)})
	}
	return true
}

func (f *Fuzzer) quarantineWarn(input []byte, detail string) {
	if err := f.quar.Save(input, detail); err != nil {
		fmt.Printf("fuzz: quarantine: %v\n", err)
	}
}

// nextInput produces the next candidate bytestream.
func (f *Fuzzer) nextInput() []byte {
	if len(f.pending) > 0 {
		next := f.pending[0]
		f.pending = f.pending[1:]
		return next
	}
	var base []byte
	if len(f.corpus) > 0 && f.rng.Intn(8) != 0 {
		base = f.corpus[f.rng.Intn(len(f.corpus))]
	}
	useCustom := !f.cfg.DisableCustomMutator && f.rng.Float64() < f.cfg.CustomMutatorProb
	if useCustom {
		return f.mut.instructionAware(base, f.curLen)
	}
	var cross []byte
	if len(f.corpus) > 1 {
		cross = f.corpus[f.rng.Intn(len(f.corpus))]
	}
	return f.mut.generic(base, cross, f.curLen)
}

// Run executes until maxExecs executions or maxDur wall time (whichever
// comes first; zero disables a bound, but at least one must be set).
func (f *Fuzzer) Run(maxExecs uint64, maxDur time.Duration) error {
	return f.RunContext(context.Background(), maxExecs, maxDur)
}

// RunContext is Run with cancellation: the loop stops cleanly between
// steps when ctx is cancelled, returning ctx.Err(). It also stops with an
// error if the foundation simulator wedged and could not be rebuilt.
func (f *Fuzzer) RunContext(ctx context.Context, maxExecs uint64, maxDur time.Duration) error {
	if maxExecs == 0 && maxDur == 0 {
		return fmt.Errorf("fuzz: Run needs an execution or duration bound")
	}
	deadline := time.Now().Add(maxDur)
	for {
		if f.broken != nil {
			return f.broken
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		if maxExecs > 0 && f.execs >= maxExecs {
			return nil
		}
		if maxDur > 0 && !time.Now().Before(deadline) {
			return nil
		}
		f.Step()
	}
}

// FlushTelemetry emits the fuzzer's cumulative stage-timer totals as a
// stage_summary event — the input of `rvreport -events`. Campaign calls
// it once per worker when the worker finishes; single-fuzzer drivers
// call it at the end of a run. No-op when telemetry is disabled.
func (f *Fuzzer) FlushTelemetry() {
	f.tel.emitSummary(f.execs, len(f.corpus))
}

// Corpus returns the collected test cases (the generated test suite), in
// collection order. The returned slice is the caller's: later campaign
// steps never mutate it (the case bytestreams themselves are immutable
// once collected).
func (f *Fuzzer) Corpus() [][]byte {
	return append([][]byte(nil), f.corpus...)
}

// Execs returns the number of executions performed so far.
func (f *Fuzzer) Execs() uint64 { return f.execs }

// Stats returns campaign statistics. The returned value is a snapshot:
// its Trace is copied, so sampling stats mid-campaign hands the caller
// a slice that later steps cannot mutate (the fuzzer keeps appending to
// its own trace, which previously shared the backing array).
func (f *Fuzzer) Stats() Stats {
	// The live rate covers only this session's work: a resumed campaign
	// restores cumulative execs and elapsed from the checkpoint, and
	// dividing those would dilute the printed rate with pre-interrupt
	// wall-clock.
	eps := 0.0
	if sessExecs := f.execs - f.baseExecs; f.sessElapsed > 0 {
		eps = float64(sessExecs) / f.sessElapsed.Seconds()
	}
	return Stats{
		Execs:           f.execs,
		Dropped:         f.dropped,
		TestCases:       len(f.corpus),
		Crashes:         f.crashes,
		Timeouts:        f.timeout,
		HarnessFaults:   f.hfaults,
		Duration:        f.elapsed,
		SessionDuration: f.sessElapsed,
		ExecsPerSec:     eps,
		CovPoints:       f.col.NumPoints(),
		CovBits:         f.col.Map.BucketBits(),
		Trace:           append([]TracePoint(nil), f.trace...),
		Filter:          f.fstats,
	}
}
