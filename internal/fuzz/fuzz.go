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
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"slices"
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
	// and per-stage latency histograms, published and sampled as package
	// obs describes. Telemetry is observational only — it never
	// influences campaign decisions and is excluded from checkpoints and
	// from the Fingerprint.
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
		Coverage:   coverage.V3(),
		ISA:        isa.RV32GC,
		MaxLen:     64,
		LenControl: 10000,
		Seed:       1,
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
	// Duration is the campaign's cumulative RunContext wall time across
	// every session (resumed campaigns carry the pre-interrupt elapsed
	// time forward from the checkpoint). Steps called directly, outside
	// RunContext, are not charged.
	Duration time.Duration `json:"duration_ns"`
	// SessionDuration is the RunContext wall time of the current process
	// only; it backs ExecsPerSec so a resumed campaign reports its live
	// rate instead of one diluted by pre-interrupt wall-clock.
	SessionDuration time.Duration `json:"session_duration_ns,omitempty"`
	// ExecsPerSec is the live execution rate: the executions this
	// session's RunContext calls ran divided by SessionDuration. For a
	// fresh campaign driven by RunContext alone it equals
	// Execs/Duration.
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
	cases   []caseRecord // one per corpus entry
	// facts holds each distinct facts vector of the corpus once, in
	// order of first appearance; a caseRecord names its entry's by
	// index. factIDs maps a vector's bytes (factKey, the scratch they
	// are written in) to that index. Both are built at the first
	// corpus addition.
	facts   [][]wordFacts
	factIDs map[string]int
	factKey []byte
	fstats  analysis.Stats
	execs   uint64
	crashes uint64
	timeout uint64
	hfaults uint64
	traps   uint64 // executor traps taken this session; telemetry only
	stall   int
	curLen  int
	elapsed time.Duration
	broken  error // set when the target could not be rebuilt after a wedge

	// sessElapsed and sessExecs are the wall time and the executions of
	// this process's RunContext calls, the live execution rate: a resumed
	// fuzzer restores `elapsed` and `execs` cumulatively from the
	// checkpoint, which must not dilute the rate this session achieves.
	sessElapsed time.Duration
	sessExecs   uint64

	tel *telemetry // nil when telemetry is disabled
}

// caseRecord is what the fuzzer keeps of a corpus entry besides its
// bytes: the execution that collected it (its growth-trace point is
// (execs, index+1)) and the index of its facts in Fuzzer.facts.
type caseRecord struct {
	execs uint64
	facts int
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

// Step performs one fuzzer execution: the stages mutate (nextInput),
// filter (admit), execute and coverage-eval (evaluate), each run only
// when the one before it let the input through. It reports whether the
// input was collected as a new test case. Step charges no wall time:
// RunContext does, for the steps it runs.
//
// With telemetry on, every obs.SampleEvery-th execution is sampled: it
// reads the clock to open the mutate stage, closes each stage with a
// lap, and publishes the fuzzer's counts. The filter stage is lapped
// only when Filter.Check ran; a known-accepted input skips the check
// (admit), and so does every input when the filter is disabled, and a
// near-zero sample for those would understate the check's mean. What
// admit takes for them goes to the execute stage.
func (f *Fuzzer) Step() bool {
	f.execs++
	var t *telemetry // non-nil on a sampled execution
	if f.tel != nil && f.execs%obs.SampleEvery == 0 {
		t = f.tel
		t.t0 = time.Now()
	}
	input, known := f.nextInput()
	t.lap(obs.StageMutate)
	accepted := f.admit(input, known)
	if !known && !f.cfg.DisableFilter {
		t.lap(obs.StageFilter)
	}
	novel := false
	if accepted {
		completed := f.execute(input)
		t.lap(obs.StageExecute)
		if completed {
			novel = f.evaluate(input)
			t.lap(obs.StageCoverageEval)
		}
	}
	if t != nil {
		t.publish(f)
	}
	return novel
}

// admit runs the static filter on input and counts its verdict.
// Dropped inputs return no coverage, so the fuzzer never collects them
// (the paper's key automation property). A known-accepted input, one
// byte-identical to the corpus entry it was mutated from, is counted as
// accepted without a check: this fuzzer's filter accepted those bytes
// when they joined the corpus (Resume checks a loaded corpus once).
func (f *Fuzzer) admit(input []byte, known bool) bool {
	if f.cfg.DisableFilter {
		return true
	}
	if known {
		f.fstats.Record(analysis.ReasonNone)
		return true
	}
	res := f.flt.Check(input)
	f.fstats.Record(res.Reason)
	return res.Accepted
}

// hookedRun is one guarded run. It carries its own target, collector
// and input, so a reaped run keeps using those after the fuzzer has
// replaced them.
type hookedRun struct {
	target sim.HookedSim
	col    *coverage.Collector
	input  []byte
}

func (r hookedRun) run() sim.Outcome { return r.target.RunHooked(r.input, r.col) }

// execute runs input on the target under the harness. It reports
// whether the run completed; a crash, a timeout or a harness fault is
// counted and its coverage discarded.
func (f *Fuzzer) execute(input []byte) bool {
	out, rec, timedOut := resilience.Guard(f.cfg.CaseTimeout, hookedRun.run, hookedRun{f.target, f.col, input})
	switch {
	case rec != nil:
		// The simulator unwound past its own recovery — a harness-level
		// fault, isolated here so the campaign continues.
		f.crashes++
		f.hfaults++
		f.tel.event(obs.Event{Type: "quarantine", Execs: f.execs, Detail: "panic: " + rec.Msg})
		f.quarantineWarn(input, "panic: "+rec.Msg+"\n\n"+rec.Stack)
		f.col.Map.DiscardRun()
		return false
	case timedOut:
		// Wedged run reaped by the watchdog. Its goroutine still owns the
		// old target and collector, so both are replaced, and may still
		// read input, which lives in the mutator's buffer: the next
		// candidate gets a fresh one.
		f.timeout++
		f.hfaults++
		detail := fmt.Sprintf("watchdog: no result within %v", f.cfg.CaseTimeout)
		f.tel.event(obs.Event{Type: "quarantine", Execs: f.execs, Detail: detail})
		f.quarantineWarn(input, detail)
		f.rebuildTarget()
		f.mut.buf = nil
		return false
	case out.Crashed:
		f.crashes++
		f.tel.event(obs.Event{Type: "crash", Execs: f.execs, Detail: out.CrashMsg})
		f.col.Map.DiscardRun()
		return false
	case out.TimedOut:
		f.timeout++
		f.col.Map.DiscardRun()
		return false
	}
	f.traps += out.Traps
	return true
}

// evaluate merges a completed run's coverage and collects input when it
// is novel. Without new coverage for LenControl executions, the length
// limit grows (-len_control).
func (f *Fuzzer) evaluate(input []byte) bool {
	if !f.col.Map.MergeNew() {
		f.stall++
		if f.stall >= f.cfg.LenControl && f.curLen < f.cfg.MaxLen {
			f.curLen += 4
			f.stall = 0
		}
		return false
	}
	f.stall = 0
	f.corpus = append(f.corpus, append([]byte(nil), input...))
	f.cases = append(f.cases, caseRecord{execs: f.execs, facts: f.factsOf(input)})
	f.tel.event(obs.Event{Type: "corpus_add", Execs: f.execs, Corpus: len(f.corpus)})
	return true
}

func (f *Fuzzer) quarantineWarn(input []byte, detail string) {
	if err := f.quar.Save(input, detail); err != nil {
		fmt.Fprintf(os.Stderr, "fuzz: quarantine: %v\n", err)
	}
}

// factsOf returns the index in f.facts of the facts of input, a new
// corpus entry the filter has just accepted, adding them if they are
// new. On the user family they are read from the filter's analysis of
// input, made in the mutator's mode; the trap family's filter analyses
// in trap mode, so the mutator analyses input once more. A
// known-accepted input never gets here: it runs to coverage its corpus
// entry has already merged.
func (f *Fuzzer) factsOf(input []byte) int {
	var a *analysis.Analysis
	if !f.flt.Trap && !f.cfg.DisableFilter {
		a = f.flt.Analysis()
	}
	facts := f.mut.analyse(input, a)
	key := f.factKey[:0]
	for _, w := range facts {
		key = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(key, w.clean), w.avoid)
	}
	f.factKey = key
	if id, ok := f.factIDs[string(key)]; ok {
		return id
	}
	if f.factIDs == nil {
		f.factIDs = make(map[string]int)
	}
	f.factIDs[string(key)] = len(f.facts)
	f.facts = append(f.facts, slices.Clone(facts))
	return len(f.facts) - 1
}

// customMutatorProb is the probability of using the instruction-aware
// mutator for a given input (the paper attaches it "with equal
// probability to the existing mutators"). Fingerprint prints it as
// `prob=0.5`, the text existing checkpoints carry, so they still resume.
const customMutatorProb = 0.5

// nextInput produces the next candidate bytestream, and reports whether
// it is known-accepted: byte-identical to the corpus entry it was
// mutated from.
func (f *Fuzzer) nextInput() ([]byte, bool) {
	if len(f.pending) > 0 {
		next := f.pending[0]
		f.pending = f.pending[1:]
		return next, false
	}
	var base []byte
	i := -1 // base's index in the corpus
	if len(f.corpus) > 0 && f.rng.Intn(8) != 0 {
		i = f.rng.Intn(len(f.corpus))
		base = f.corpus[i]
	}
	var input []byte
	if !f.cfg.DisableCustomMutator && f.rng.Float64() < customMutatorProb {
		var facts []wordFacts
		if i >= 0 {
			facts = f.facts[f.cases[i].facts]
		}
		input = f.mut.instructionAware(base, facts, f.curLen)
	} else {
		var cross []byte
		if len(f.corpus) > 1 {
			cross = f.corpus[f.rng.Intn(len(f.corpus))]
		}
		input = f.mut.generic(base, cross, f.curLen)
	}
	return input, i >= 0 && bytes.Equal(input, base)
}

// Run executes until maxExecs executions or maxDur wall time (whichever
// comes first; zero disables a bound, but at least one must be set).
func (f *Fuzzer) Run(maxExecs uint64, maxDur time.Duration) error {
	return f.RunContext(context.Background(), maxExecs, maxDur)
}

// RunContext is Run with cancellation: the loop stops cleanly between
// steps when ctx is cancelled, returning ctx.Err(). It also stops with an
// error if the foundation simulator wedged and could not be rebuilt.
//
// RunContext is the campaign's clock: it reads the time when it starts
// and when it returns, charges the wall time between to Stats().Duration
// and SessionDuration and the executions it ran to the session's rate,
// and publishes the fuzzer's counts.
func (f *Fuzzer) RunContext(ctx context.Context, maxExecs uint64, maxDur time.Duration) error {
	if maxExecs == 0 && maxDur == 0 {
		return fmt.Errorf("fuzz: Run needs an execution or duration bound")
	}
	start, execs := time.Now(), f.execs
	defer func() {
		d := time.Since(start)
		f.elapsed += d
		f.sessElapsed += d
		f.sessExecs += f.execs - execs
		f.tel.publish(f)
	}()
	deadline := start.Add(maxDur)
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

// FlushTelemetry publishes the fuzzer's counts and emits its stage-timer
// totals since its previous stage_summary as a stage_summary event — the
// input of `rvreport -events`, which sums them. Campaign calls it once
// per worker when the worker finishes; single-fuzzer drivers call it at
// the end of a run, and a Campaign worker then withdraws its gauge
// values. No-op when telemetry is disabled.
func (f *Fuzzer) FlushTelemetry() {
	f.tel.publish(f)
	if f.tel == nil || f.tel.events == nil {
		return
	}
	f.tel.event(obs.Event{Type: "stage_summary", Execs: f.execs, Corpus: len(f.corpus),
		Stages: f.tel.takeStages()})
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

// growthTrace returns a new copy of the growth trace: point i is
// (execs of corpus entry i, i+1).
func (f *Fuzzer) growthTrace() []TracePoint {
	if len(f.cases) == 0 {
		return nil
	}
	trace := make([]TracePoint, len(f.cases))
	for i, c := range f.cases {
		trace[i] = TracePoint{Execs: c.execs, TestCases: i + 1}
	}
	return trace
}

// Stats returns campaign statistics. The returned value is a snapshot:
// its Trace is copied, so sampling stats mid-campaign hands the caller
// a slice that later steps cannot mutate (the fuzzer keeps appending to
// its own trace, which previously shared the backing array).
func (f *Fuzzer) Stats() Stats {
	eps := 0.0
	if f.sessElapsed > 0 {
		eps = float64(f.sessExecs) / f.sessElapsed.Seconds()
	}
	return Stats{
		Execs:           f.execs,
		Dropped:         f.fstats.Dropped(),
		TestCases:       len(f.corpus),
		Crashes:         f.crashes,
		Timeouts:        f.timeout,
		HarnessFaults:   f.hfaults,
		Duration:        f.elapsed,
		SessionDuration: f.sessElapsed,
		ExecsPerSec:     eps,
		CovPoints:       f.col.NumPoints(),
		CovBits:         f.col.Map.BucketBits(),
		Trace:           f.growthTrace(),
		Filter:          f.fstats,
	}
}
