// Package compliance implements Phase B of the paper: running a generated
// test suite on simulators under test, comparing their signatures against
// the reference simulator's (riscvOVPsim in the paper), and aggregating
// the per-ISA-configuration mismatch counts of Table I.
//
// A single generated suite serves every ISA configuration: test cases are
// platform-independent sources, and instructions outside a configuration
// must raise an illegal-instruction exception, which the signature
// captures.
package compliance

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"time"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/sig"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/sut"
	"rvnegtest/internal/template"
)

// Suite is a generated compliance test suite.
type Suite struct {
	// Cases are the raw bytestreams, in generation order.
	Cases [][]byte
	// Origin documents how the suite was generated.
	Origin string
	// Family is the template family the cases were generated for. The
	// zero value (user) keeps the historical on-disk format and report
	// byte-identical; trap-family suites run under the recording trap
	// handler and compare the trap-record signature region too.
	Family template.Family
}

// Category classifies one signature mismatch by its observable pattern,
// mirroring the discussion of findings in section V-B.
type Category uint8

const (
	// CatCompletionMarker: the x26 completion marker differs (e.g. the
	// Spike ECALL signature corruption).
	CatCompletionMarker Category = iota
	// CatTrapCause: the recorded trap cause differs (decoder accepts an
	// invalid encoding, or takes the wrong exception).
	CatTrapCause
	// CatRegisterValue: a general-purpose register value differs (wrong
	// execution semantics or illegal side effects, e.g. GRIFT's link
	// write).
	CatRegisterValue
	// CatFPValue: a floating-point signature word differs.
	CatFPValue
	// CatCrash: the simulator under test crashed.
	CatCrash
	// CatTimeout: the simulator under test did not terminate.
	CatTimeout
	// CatMissing: the simulator produced no/short signature.
	CatMissing
	// CatTrapRecord: a trap-record signature word differs (trap-family
	// suites only): wrong mtval, wrong dispatch path, wrong mstatus
	// save/restore, or a diverging trap count.
	CatTrapRecord
	catCount
)

var catNames = [catCount]string{
	"completion-marker", "trap-cause", "register-value", "fp-value",
	"crash", "timeout", "missing-signature", "trap-record",
}

func (c Category) String() string {
	if int(c) < len(catNames) {
		return catNames[c]
	}
	return "unknown"
}

// ClassifyAt determines the dominant mismatch category between a
// reference signature and a test output. Signature words at index >=
// trapBase belong to the trap-family record area and dominate every
// other class (they are what the trap suite exists to compare);
// trapBase == 0 disables the region (user-family layout).
func ClassifyAt(ref, got []uint32, trapBase int) Category {
	if len(got) < len(ref) {
		return CatMissing
	}
	return classify(sig.Diff(sig.Signature(ref), sig.Signature(got)), trapBase)
}

// classify files a full-length signature's differing word indexes under
// ClassifyAt's rules.
func classify(diffs []int, trapBase int) Category {
	hasTrapRec, hasCause, hasX26, hasReg, hasFP := false, false, false, false, false
	for _, d := range diffs {
		switch {
		case trapBase > 0 && d >= trapBase:
			hasTrapRec = true
		case d == 30:
			hasCause = true
		case d == 26:
			hasX26 = true
		case d < 32:
			// Words 0..29 are x0..x29 (x26 and the word-30 trap-cause
			// slot handled above); word 31 is the register-file sentinel
			// slot, also an integer-side diff. Only words >= 32 belong to
			// the FP signature, so a {31, fp} diff set stays
			// register-class instead of being misfiled as fp-value.
			hasReg = true
		default:
			hasFP = true
		}
	}
	switch {
	case hasTrapRec:
		return CatTrapRecord
	case hasCause:
		return CatTrapCause
	case hasX26 && !hasReg:
		return CatCompletionMarker
	case hasReg:
		return CatRegisterValue
	case hasFP:
		return CatFPValue
	}
	return CatRegisterValue
}

// Cell is one (simulator, ISA configuration) result of Table I.
type Cell struct {
	Supported  bool
	Mismatches int
	Crashes    int
	Timeouts   int
	// Skipped counts cases excluded from the comparison because the
	// reference run itself crashed or timed out; it keeps the mismatch
	// denominator honest (Cases - Skipped cases were actually compared).
	Skipped int
	// Categories histogram over mismatching cases.
	Categories [catCount]int
	// Examples lists up to a few mismatching case indexes for triage.
	Examples []int

	// HarnessFaults counts runs that failed at the harness level — a
	// panic isolated by the resilience layer or a wall-clock watchdog
	// timeout — as opposed to crash/timeout outcomes the simulator
	// reported through its own error handling.
	HarnessFaults int `json:",omitempty"`
	// SkippedUnhealthy counts cases never run because the simulator's
	// circuit breaker had tripped (consecutive harness faults).
	SkippedUnhealthy int `json:",omitempty"`
	// SkippedAdapter counts cases whose external adapter exchange failed
	// past the retry budget (wedge, crash, protocol garbage): the case
	// ran out of infrastructure, not out of correctness, so it is
	// excluded from the verdict counts instead of polluting them.
	SkippedAdapter int `json:",omitempty"`
	// Unhealthy marks a tripped breaker: the cell's counts cover only the
	// cases run before (and during) the fault streak.
	Unhealthy bool `json:",omitempty"`
	// FaultMsgs preserves up to a few distinct harness-fault messages
	// (e.g. the panic text) for triage.
	FaultMsgs []string `json:",omitempty"`
}

// maxFaultMsgs bounds the per-cell fault-message list.
const maxFaultMsgs = 4

func (c *Cell) addFaultMsg(msg string) {
	for _, m := range c.FaultMsgs {
		if m == msg {
			return
		}
	}
	if len(c.FaultMsgs) < maxFaultMsgs {
		c.FaultMsgs = append(c.FaultMsgs, msg)
	}
}

// merge folds a later shard's partial cell into c, so that the merged
// cell equals one case-order pass over the whole suite: counters add up
// and example indexes concatenate in shard (= case) order up to the
// maxEx bound.
func (c *Cell) merge(p *Cell, maxEx int) {
	c.Mismatches += p.Mismatches
	c.Crashes += p.Crashes
	c.Timeouts += p.Timeouts
	c.Skipped += p.Skipped
	for k, n := range p.Categories {
		c.Categories[k] += n
	}
	for _, idx := range p.Examples {
		if len(c.Examples) >= maxEx {
			break
		}
		c.Examples = append(c.Examples, idx)
	}
	c.HarnessFaults += p.HarnessFaults
	c.SkippedUnhealthy += p.SkippedUnhealthy
	c.SkippedAdapter += p.SkippedAdapter
	c.Unhealthy = c.Unhealthy || p.Unhealthy
	for _, m := range p.FaultMsgs {
		c.addFaultMsg(m)
	}
}

// String renders the cell the way Table I does: "/" for unsupported
// configurations, "unhealthy" when the circuit breaker gave up on the
// simulator, "crash" when the simulator crashed during the run.
func (c Cell) String() string {
	switch {
	case !c.Supported:
		return "/"
	case c.Unhealthy:
		return "unhealthy"
	case c.Crashes > 0:
		return "crash"
	default:
		return fmt.Sprint(c.Mismatches)
	}
}

// Report aggregates a full Table I run.
type Report struct {
	RefName string
	Sims    []string
	Configs []isa.Config
	// Cells[i][j] is configuration i on simulator j.
	Cells [][]Cell
	Cases int
	// Skipped[i] counts the cases of configuration i whose reference run
	// crashed or timed out, making them unusable for comparison.
	Skipped []int
}

// Render prints the report in the layout of Table I.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Number of signature mismatches against %s (%d test cases)\n", r.RefName, r.Cases)
	fmt.Fprintf(&b, "%-10s", "RISC-V ISA")
	for _, s := range r.Sims {
		fmt.Fprintf(&b, " %12s", s)
	}
	b.WriteByte('\n')
	for i, cfg := range r.Configs {
		fmt.Fprintf(&b, "%-10s", cfg)
		for j := range r.Sims {
			fmt.Fprintf(&b, " %12s", r.Cells[i][j])
		}
		b.WriteByte('\n')
	}
	for i, cfg := range r.Configs {
		if i < len(r.Skipped) && r.Skipped[i] > 0 {
			fmt.Fprintf(&b, "%v: %d of %d cases skipped (reference run crashed or timed out)\n",
				cfg, r.Skipped[i], r.Cases)
		}
	}
	for i, cfg := range r.Configs {
		for j, name := range r.Sims {
			c := r.Cells[i][j]
			if c.HarnessFaults == 0 && c.SkippedUnhealthy == 0 && c.SkippedAdapter == 0 {
				continue
			}
			fmt.Fprintf(&b, "%v/%s: %d harness fault(s)", cfg, name, c.HarnessFaults)
			if c.SkippedUnhealthy > 0 {
				fmt.Fprintf(&b, ", %d case(s) skipped (sut-unhealthy)", c.SkippedUnhealthy)
			}
			if c.SkippedAdapter > 0 {
				fmt.Fprintf(&b, ", %d case(s) skipped (adapter)", c.SkippedAdapter)
			}
			for _, m := range c.FaultMsgs {
				fmt.Fprintf(&b, "\n    %s", m)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Degraded reports whether any cell was affected by harness-level faults
// (isolated panics, watchdog timeouts, or breaker-skipped cases). A
// degraded report is complete — every cell is rendered — but the affected
// simulator's numbers cover fewer cases than the suite holds. Modeled
// crash/timeout outcomes do not degrade a report; they are findings.
func (r *Report) Degraded() bool {
	for _, row := range r.Cells {
		for _, c := range row {
			if c.HarnessFaults > 0 || c.SkippedUnhealthy > 0 || c.SkippedAdapter > 0 || c.Unhealthy {
				return true
			}
		}
	}
	return false
}

// Runner executes compliance testing for a suite.
type Runner struct {
	// Ref generates the reference signatures (riscvOVPsim per the
	// compliance convention, including its own seeded defect — a
	// reference simulator can itself be wrong, which the paper found).
	Ref *sim.Variant
	// SUTs are the simulators under test.
	SUTs []*sim.Variant
	// External adds out-of-process SUT columns: each spec launches an
	// adapter subprocess speaking the internal/sut protocol, supervised
	// with watchdog/kill-and-restart/backoff per worker. Specs must carry
	// unique non-empty names (they become report columns).
	External []sut.Spec
	// HalfOpenAfter configures external columns' breaker recovery: an
	// open breaker admits one probe run after this many skipped runs
	// (cool-down counted in runs, not wall time, so campaigns stay
	// deterministic). Zero means DefaultHalfOpenAfter; negative keeps
	// external breakers stay-open like in-process ones.
	HalfOpenAfter int
	// Configs are the ISA configurations to test (Table I rows).
	Configs []isa.Config
	// DontCare optionally relaxes the comparison (the section VI
	// extension); usually nil for the register-only signature.
	DontCare *sig.DontCare
	// MaxExamples bounds the per-cell example list.
	MaxExamples int
	// Workers is the number of concurrent workers the suite is sharded
	// across: 0 means 1, and a negative value uses GOMAXPROCS. The report
	// is bit-identical for every worker count (see parallel.go for the
	// determinism argument).
	Workers int
	// Progress, when non-nil, is called after each completed shard of
	// work (serialized; never concurrently).
	Progress func(ProgressEvent)
	// Stats describes the most recent Run (workers, executions,
	// throughput). It is overwritten by each Run call.
	Stats RunStats

	// CaseTimeout is a wall-clock watchdog per simulator run, on top of
	// the instruction limit: a wedged run is reaped, classified as a
	// Timeout, and counted as a harness fault. Zero disables it.
	CaseTimeout time.Duration
	// BreakerThreshold is the number of consecutive harness faults that
	// trips a simulator instance's circuit breaker, skipping its
	// remaining cases as sut-unhealthy. Zero means
	// DefaultBreakerThreshold; negative disables the breaker. Each
	// parallel worker owns its own breaker, so a faulting simulator may
	// classify slightly differently across worker counts — healthy
	// simulators' cells stay bit-identical regardless.
	BreakerThreshold int
	// QuarantineDir, when set, receives every input that triggered a
	// harness fault, with the fault detail, for triage.
	QuarantineDir string
	// NewSim overrides the simulator factory (resilience tests inject
	// sim.Faulty here). It must be safe for concurrent calls. Nil uses
	// sim.New.
	NewSim func(v *sim.Variant, p template.Platform) (sim.Sim, error)

	// Obs, when non-nil, receives run telemetry: execution counters,
	// per-SUT mismatch counters and per-stage latency histograms,
	// published and sampled as package obs describes. Observational
	// only: reports stay bit-identical with telemetry on or off.
	Obs *obs.Registry
	// Events, when non-nil, receives structured lifecycle events
	// (shard_done, cell_done, row_done, breaker_open, checkpoint) as an
	// NDJSON stream; emission is serialized across workers.
	Events *obs.EventLog

	tel *runnerTelemetry // resolved by run(); nil when telemetry is off

	// cols is the run's resolved column list (built-in SUTs followed by
	// externals), rebuilt by every run() call.
	cols []column
}

// DefaultBreakerThreshold is the consecutive-harness-fault count that
// marks a simulator unhealthy when Runner.BreakerThreshold is zero.
const DefaultBreakerThreshold = 5

func (r *Runner) breakerThreshold() int {
	switch {
	case r.BreakerThreshold < 0:
		return 0 // disabled
	case r.BreakerThreshold == 0:
		return DefaultBreakerThreshold
	}
	return r.BreakerThreshold
}

// newInstances builds one harnessed instance per worker for a variant on
// a platform. Each instance gets its own simulator from NewSim, or from
// sim.New when that is nil, and a fresh one after a wedge.
func (r *Runner) newInstances(v *sim.Variant, p template.Platform, workers int) ([]*instance, error) {
	factory := func() (sim.Sim, error) { return sim.New(v, p) }
	if r.NewSim != nil {
		factory = func() (sim.Sim, error) { return r.NewSim(v, p) }
	}
	quar := resilience.NewQuarantine(r.QuarantineDir)
	out := make([]*instance, workers)
	for w := range out {
		in, err := newInstance(v.Name, factory, r.breakerThreshold(), r.CaseTimeout, quar)
		if err != nil {
			return nil, err
		}
		if tel := r.tel; tel != nil {
			in.tel = tel
			in.breaker.OnTransition = func(from, to resilience.BreakerState) {
				if from == resilience.BreakerClosed && to == resilience.BreakerOpen {
					tel.breakerOpened(v.Name)
					tel.event(obs.Event{Type: "breaker_open", Sim: v.Name, Worker: w, Config: p.Cfg.String()})
				}
			}
		}
		out[w] = in
	}
	return out, nil
}

// DefaultRunner reproduces the paper's Table I setup.
func DefaultRunner() *Runner {
	return &Runner{
		Ref:         sim.OVPSim,
		SUTs:        append([]*sim.Variant(nil), sim.UnderTest...),
		Configs:     []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC},
		MaxExamples: 10,
	}
}

// ErrInterrupted reports that a run stopped on context cancellation
// (operator SIGINT/SIGTERM). With a checkpoint directory, every
// configuration row completed before the interruption was persisted and
// a resumed run continues from the first unfinished row.
var ErrInterrupted = errors.New("compliance: run interrupted")

// Run executes the whole suite on every (configuration, simulator) pair
// on the sharded engine; the report is the same for every Workers value.
func (r *Runner) Run(suite *Suite) (*Report, error) {
	return r.RunContext(context.Background(), suite)
}

// RunContext is Run with cancellation: the engine stops cleanly between
// cases when ctx is cancelled and RunContext returns ErrInterrupted.
func (r *Runner) RunContext(ctx context.Context, suite *Suite) (*Report, error) {
	return r.run(ctx, suite, "")
}

// RunResumable is RunContext with checkpoint/resume: completed
// configuration rows are persisted under dir (atomically, versioned) as
// the run progresses, and a fresh call with the same suite and runner
// configuration picks up after the last completed row.
func (r *Runner) RunResumable(ctx context.Context, suite *Suite, dir string) (*Report, error) {
	if dir == "" {
		return nil, errors.New("compliance: RunResumable needs a checkpoint directory")
	}
	return r.run(ctx, suite, dir)
}

// run is shared by every entry point: it iterates configurations,
// computing each Table I row with runConfig, optionally persisting rows
// to a checkpoint as they complete.
func (r *Runner) run(ctx context.Context, suite *Suite, dir string) (*Report, error) {
	workers := r.workerCount()
	// More workers than cases only buys idle shards at the price of one
	// simulator fleet each; extra workers would change nothing in the
	// output (empty shards merge as empty cells).
	if workers > len(suite.Cases) {
		workers = len(suite.Cases)
		if workers < 1 {
			workers = 1
		}
	}
	if err := r.resolveColumns(); err != nil {
		return nil, err
	}
	start := time.Now()
	r.Stats = RunStats{Workers: workers, PerWorker: make([]WorkerStats, workers)}
	r.tel = newRunnerTelemetry(r)
	r.probeExternals()

	var ckpt *campaignCheckpoint
	if dir != "" {
		var err error
		ckpt, err = loadOrInitCheckpoint(r, suite, dir)
		if err != nil {
			return nil, err
		}
	}

	rep := r.newReport(suite)
	for i, cfg := range r.Configs {
		if ckpt != nil && i < len(ckpt.Rows) {
			// Row already computed by an earlier, interrupted run.
			rep.Cells = append(rep.Cells, ckpt.Rows[i].Cells)
			rep.Skipped = append(rep.Skipped, ckpt.Rows[i].Skipped)
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, ErrInterrupted
		}
		row, skipped, err := r.runConfig(ctx, suite, cfg, workers)
		if err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				return nil, ErrInterrupted
			}
			return nil, err
		}
		rep.Cells = append(rep.Cells, row)
		rep.Skipped = append(rep.Skipped, skipped)
		r.tel.rowDone(r, cfg.String(), row, skipped)
		if ckpt != nil {
			ckpt.Rows = append(ckpt.Rows, savedRow{Config: cfg.String(), Cells: row, Skipped: skipped})
			if err := ckpt.save(dir); err != nil {
				return nil, err
			}
			r.tel.event(obs.Event{Type: "checkpoint", Worker: -1, Config: cfg.String(),
				Detail: fmt.Sprintf("rows=%d", len(ckpt.Rows))})
		}
	}
	r.Stats.Duration = time.Since(start)
	if s := r.Stats.Duration.Seconds(); s > 0 {
		r.Stats.CasesPerSec = float64(r.Stats.Execs) / s
	}
	return rep, nil
}

// defaultMaxExamples bounds a cell's example list when
// Runner.MaxExamples is unset.
const defaultMaxExamples = 10

// maxExamples resolves the example-list bound.
func (r *Runner) maxExamples() int {
	if r.MaxExamples > 0 {
		return r.MaxExamples
	}
	return defaultMaxExamples
}

// newReport builds the report skeleton.
func (r *Runner) newReport(suite *Suite) *Report {
	rep := &Report{RefName: r.Ref.Name, Configs: r.Configs, Cases: len(suite.Cases)}
	for i := range r.cols {
		rep.Sims = append(rep.Sims, r.cols[i].name)
	}
	return rep
}

// runCase executes one suite case on one simulator under test and folds
// the outcome into the cell. It reports whether the SUT actually ran:
// cases whose reference run failed are recorded as skipped and never
// execute, and a SUT whose breaker tripped skips its remaining cases as
// sut-unhealthy.
func runCase(cell *Cell, ref sim.Outcome, in *instance, bs []byte, i, maxEx, trapBase int, dc *sig.DontCare) bool {
	if ref.Crashed || ref.TimedOut {
		// A reference failure makes the case unusable for signature
		// comparison; record it so the mismatch denominator stays honest.
		cell.Skipped++
		return false
	}
	// Allow is Tripped's recovery-aware twin: for in-process breakers
	// (HalfOpenAfter zero) it is exactly !Tripped(), keeping historical
	// cells byte-identical; for external columns a denied run counts
	// toward the half-open cool-down and the probe run is admitted here.
	if !in.breaker.Allow() {
		cell.Unhealthy = true
		cell.SkippedUnhealthy++
		return false
	}
	out, harnessFault, noVerdict := in.run(i, bs)
	if harnessFault {
		cell.HarnessFaults++
		if out.CrashMsg != "" {
			cell.addFaultMsg(out.CrashMsg)
		}
		if in.breaker.Tripped() {
			cell.Unhealthy = true
		}
	}
	if noVerdict {
		// The adapter exchange failed past its retry budget: the case was
		// attempted but produced no verdict — record it as skipped, never
		// as a crash finding.
		cell.SkippedAdapter++
		return true
	}
	if in.tel != nil && i%obs.SampleEvery == 0 && !out.Crashed && !out.TimedOut {
		defer in.tel.reg.Lap(obs.StageSignatureCompare, time.Now())
	}
	cell.judge(ref.Signature, out, i, maxEx, trapBase, dc)
	return true
}

// judge folds one SUT outcome on case i into the cell: a crash or a
// timeout counts as such, anything else is compared against the
// reference signature under the don't-care rules, and every mismatch is
// classified from the words that really differ and, up to maxEx of them,
// listed as an example.
func (c *Cell) judge(ref []uint32, out sim.Outcome, i, maxEx, trapBase int, dc *sig.DontCare) {
	var cat Category
	switch {
	case out.Crashed:
		c.Crashes++
		cat = CatCrash
	case out.TimedOut:
		c.Timeouts++
		cat = CatTimeout
	default:
		diffs := sig.Compare(sig.Signature(ref), sig.Signature(out.Signature), dc)
		switch {
		case len(diffs) == 0:
			return
		case len(out.Signature) < len(ref):
			cat = CatMissing
		default:
			cat = classify(diffs, trapBase)
		}
	}
	c.Mismatches++
	c.Categories[cat]++
	if len(c.Examples) < maxEx {
		c.Examples = append(c.Examples, i)
	}
}

// runCaseRange executes suite cases [lo, hi) on one SUT instance.
func runCaseRange(ctx context.Context, cell *Cell, refOuts []sim.Outcome, in *instance, cases [][]byte, lo, hi, maxEx, trapBase int, dc *sig.DontCare) (int, error) {
	defer in.publish()
	execs := 0
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return execs, err
		}
		if runCase(cell, refOuts[i], in, cases[i], i, maxEx, trapBase, dc) {
			execs++
		}
	}
	return execs, nil
}

// runRefRange computes the reference outcomes for cases [lo, hi) with one
// harnessed reference instance. A reference harness fault surfaces as a
// crashed outcome, which downstream comparison records as a skipped case;
// a tripped reference breaker marks the remaining range the same way.
func runRefRange(ctx context.Context, refIn *instance, cases [][]byte, refOuts []sim.Outcome, lo, hi int) error {
	defer refIn.publish()
	for i := lo; i < hi; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		if refIn.breaker.Tripped() {
			refOuts[i] = sim.Outcome{Crashed: true, CrashMsg: "reference unhealthy (breaker tripped)"}
			continue
		}
		refOuts[i], _, _ = refIn.run(i, cases[i])
	}
	return nil
}

// countSkipped tallies the reference failures of one configuration.
func countSkipped(refOuts []sim.Outcome) int {
	n := 0
	for _, o := range refOuts {
		if o.Crashed || o.TimedOut {
			n++
		}
	}
	return n
}

// trapBase returns the first trap-record signature word index for the
// suite's family on a configuration, or 0 for the user family (whose
// signature has no trap-record region).
func (s *Suite) trapBase(cfg isa.Config) int {
	if s.Family != template.FamilyTrap {
		return 0
	}
	return template.PlatformFor(template.FamilyTrap, cfg).BaseSigWords()
}

// BugFindings renders the per-simulator mismatch-category breakdown, the
// analysis counterpart of the paper's section V-B bullet list.
func (r *Report) BugFindings() string {
	var b strings.Builder
	for j, name := range r.Sims {
		var total int
		var hist [catCount]int
		for i := range r.Configs {
			c := r.Cells[i][j]
			total += c.Mismatches
			for k, n := range c.Categories {
				hist[k] += n
			}
		}
		fmt.Fprintf(&b, "%s: %d mismatching cases", name, total)
		if total == 0 {
			b.WriteString("\n")
			continue
		}
		b.WriteString(" (")
		var parts []string
		type kv struct {
			k int
			n int
		}
		var ks []kv
		for k, n := range hist {
			if n > 0 {
				ks = append(ks, kv{k, n})
			}
		}
		sort.Slice(ks, func(a, b int) bool { return ks[a].n > ks[b].n })
		for _, e := range ks {
			parts = append(parts, fmt.Sprintf("%s: %d", Category(e.k), e.n))
		}
		b.WriteString(strings.Join(parts, ", "))
		b.WriteString(")\n")
	}
	return b.String()
}
