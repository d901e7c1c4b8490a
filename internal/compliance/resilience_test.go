package compliance

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// faultySUTFactory builds a Runner.NewSim that wraps only the named
// simulator in the fault-injection harness; every other variant (including
// the reference) runs unmodified.
func faultySUTFactory(target string, plan sim.Schedule, msg string, release <-chan struct{}) func(*sim.Variant, template.Platform) (sim.Sim, error) {
	return func(v *sim.Variant, p template.Platform) (sim.Sim, error) {
		inner, err := sim.New(v, p)
		if err != nil {
			return nil, err
		}
		if v.Name != target {
			return inner, nil
		}
		return &sim.Faulty{Inner: inner, Plan: plan, PanicMsg: msg, Release: release}, nil
	}
}

// planOnInput faults only when running the given input — deterministic
// regardless of execution order or worker count.
func planOnInput(input []byte, f sim.Fault) sim.Schedule {
	return func(bs []byte) sim.Fault {
		if bytes.Equal(bs, input) {
			return f
		}
		return sim.FaultNone
	}
}

// TestFaultySUTDoesNotPoisonOthers is the fault-tolerance acceptance
// check: with fault injection on one simulator, the report still completes,
// the affected cells read as harness faults, every other simulator's cells
// are bit-identical to a fault-free run, and the report says Degraded.
func TestFaultySUTDoesNotPoisonOthers(t *testing.T) {
	suite := handSuite()
	clean := DefaultRunner()
	clean.Workers = 1
	want, err := clean.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	if want.Degraded() {
		t.Fatal("fault-free run reports Degraded")
	}

	faulty := DefaultRunner()
	faulty.Workers = 1
	faulty.NewSim = faultySUTFactory("Spike",
		planOnInput(suite.Cases[0], sim.FaultPanic), "sail decoder crash: illegal encoding", nil)
	got, err := faulty.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Degraded() {
		t.Fatal("faulty run does not report Degraded")
	}

	sawFault := false
	for i := range want.Configs {
		for j, name := range want.Sims {
			if name == "Spike" {
				c := got.Cells[i][j]
				if c.HarnessFaults > 0 {
					sawFault = true
					if len(c.FaultMsgs) == 0 || c.FaultMsgs[0] != "sail decoder crash: illegal encoding" {
						t.Fatalf("fault message not preserved: %q", c.FaultMsgs)
					}
				}
				continue
			}
			if !reflect.DeepEqual(want.Cells[i][j], got.Cells[i][j]) {
				t.Fatalf("%v/%s: cell differs from fault-free run:\n  want %+v\n  got  %+v",
					want.Configs[i], name, want.Cells[i][j], got.Cells[i][j])
			}
		}
	}
	if !sawFault {
		t.Fatal("injected panic never fired")
	}

	raw, err := got.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var js struct {
		Degraded bool `json:"degraded"`
	}
	if err := json.Unmarshal(raw, &js); err != nil {
		t.Fatal(err)
	}
	if !js.Degraded {
		t.Fatal("JSON report lacks degraded=true")
	}
}

// TestPanicClassification drives the table of panic messages the paper's
// simulators actually produce through the harness and checks each surfaces
// as a crash with its message preserved.
func TestPanicClassification(t *testing.T) {
	suite := &Suite{Cases: [][]byte{
		{0x13, 0x00, 0x00, 0x00}, // NOP
		{0x93, 0x00, 0x10, 0x00}, // ADDI x1, x0, 1
	}}
	for _, msg := range []string{
		"sail decoder crash: malformed compressed pattern",
		"exec: unhandled operation 0x7f",
	} {
		r := &Runner{
			Ref:     sim.OVPSim,
			SUTs:    []*sim.Variant{sim.Spike},
			Configs: []isa.Config{isa.RV32I},
			Workers: 1,
			NewSim:  faultySUTFactory("Spike", func([]byte) sim.Fault { return sim.FaultPanic }, msg, nil),
		}
		rep, err := r.Run(suite)
		if err != nil {
			t.Fatal(err)
		}
		c := rep.Cells[0][0]
		if c.HarnessFaults != len(suite.Cases) || c.Crashes != len(suite.Cases) {
			t.Fatalf("%q: faults=%d crashes=%d, want %d each", msg, c.HarnessFaults, c.Crashes, len(suite.Cases))
		}
		if len(c.FaultMsgs) != 1 || c.FaultMsgs[0] != msg {
			t.Fatalf("fault message not preserved: %q", c.FaultMsgs)
		}
		if got := c.String(); got != "crash" {
			t.Fatalf("cell renders %q, want crash", got)
		}
	}
}

// TestBreakerMarksUnhealthy trips the circuit breaker with consecutive
// panics and checks the remaining cases are skipped as sut-unhealthy.
func TestBreakerMarksUnhealthy(t *testing.T) {
	var cases [][]byte
	for i := 0; i < 8; i++ {
		cases = append(cases, []byte{0x93, byte(i), 0x10, 0x00})
	}
	suite := &Suite{Cases: cases}
	r := &Runner{
		Ref:              sim.OVPSim,
		SUTs:             []*sim.Variant{sim.Spike},
		Configs:          []isa.Config{isa.RV32I},
		Workers:          1,
		BreakerThreshold: 2,
		NewSim:           faultySUTFactory("Spike", func([]byte) sim.Fault { return sim.FaultPanic }, "boom", nil),
	}
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0][0]
	if c.HarnessFaults != 2 {
		t.Fatalf("harness faults = %d, want 2 (the threshold)", c.HarnessFaults)
	}
	if c.SkippedUnhealthy != len(cases)-2 {
		t.Fatalf("skipped unhealthy = %d, want %d", c.SkippedUnhealthy, len(cases)-2)
	}
	if !c.Unhealthy || c.String() != "unhealthy" {
		t.Fatalf("cell %+v renders %q, want unhealthy", c, c.String())
	}
	if !rep.Degraded() {
		t.Fatal("breaker trip does not degrade the report")
	}
	if !strings.Contains(rep.Render(), "sut-unhealthy") {
		t.Fatal("Render lacks the sut-unhealthy note")
	}
}

// TestWatchdogReapsWedgedSUT wedges one case; the watchdog must reap it,
// count a timeout harness fault, and finish the remaining cases.
func TestWatchdogReapsWedgedSUT(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	suite := &Suite{Cases: [][]byte{
		{0x13, 0x00, 0x00, 0x00},
		{0x93, 0x00, 0x10, 0x00},
		{0x93, 0x01, 0x20, 0x00},
	}}
	r := &Runner{
		Ref:         sim.OVPSim,
		SUTs:        []*sim.Variant{sim.Spike},
		Configs:     []isa.Config{isa.RV32I},
		Workers:     1,
		CaseTimeout: 50 * time.Millisecond,
		NewSim:      faultySUTFactory("Spike", planOnInput(suite.Cases[1], sim.FaultWedge), "", release),
	}
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	c := rep.Cells[0][0]
	if c.Timeouts != 1 || c.HarnessFaults != 1 {
		t.Fatalf("timeouts=%d faults=%d, want 1 each", c.Timeouts, c.HarnessFaults)
	}
	// No case was skipped: the wedge was reaped and the rest completed.
	if ran := len(suite.Cases) - c.SkippedUnhealthy - c.Skipped; ran != 3 {
		t.Fatalf("only %d cases ran", ran)
	}
}

// reapingSim runs a simulator, except on the suite's case wedge. With
// reap unset that case reports a timeout at once; with reap set its run
// outlives the case timeout: it blocks until the next case's run has
// written its signature, then writes 0xdeadbeef over the whole buffer it
// was handed. That next run waits for the write before it returns, so
// the write lands after the engine's next signature is written and
// before the engine reads it.
type reapingSim struct {
	s  *sim.Simulator
	st *reapState
}

type reapState struct {
	index                   map[string]int // case index by input
	wedge                   int
	reap                    bool
	entered, release, wrote chan struct{}
	released                sync.Once
}

func (r *reapingSim) Run(bs []byte) sim.Outcome { return r.RunInto(bs, nil) }

func (r *reapingSim) RunInto(bs []byte, sig []uint32) sim.Outcome {
	st := r.st
	i := st.index[string(bs)]
	if i == st.wedge {
		if !st.reap {
			return sim.Outcome{TimedOut: true}
		}
		close(st.entered)
		<-st.release
		sig = sig[:cap(sig)]
		for j := range sig {
			sig[j] = 0xdeadbeef
		}
		close(st.wrote)
		return sim.Outcome{}
	}
	out := r.s.RunInto(bs, sig)
	if st.reap && i > st.wedge {
		st.released.Do(func() {
			<-st.entered
			close(st.release)
			<-st.wrote
		})
	}
	return out
}

// TestReapedRunCannotCorruptSignatures reaps one run whose goroutine,
// once released, writes over the buffer it was handed: a SUT's run, in
// whose instance buffer the engine compares the next case, and the
// reference's, whose buffer is its case's slot in the row's array. Every
// cell and skip count must equal those of a clean run in which that case
// reports a timeout without a harness fault (the reaped reference case
// is skipped in both), but for the reaped SUT run's one harness fault.
func TestReapedRunCannotCorruptSignatures(t *testing.T) {
	suite := &Suite{}
	index := map[string]int{}
	for i := range 6 {
		bs := stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: int32(i + 1)}))
		suite.Cases, index[string(bs)] = append(suite.Cases, bs), i
	}
	for _, target := range []*sim.Variant{sim.Spike, sim.OVPSim} {
		t.Run(target.Name, func(t *testing.T) {
			run := func(reap bool) *Report {
				st := &reapState{index: index, wedge: 2, reap: reap,
					entered: make(chan struct{}), release: make(chan struct{}), wrote: make(chan struct{})}
				// Never leave the wedged goroutine blocked past the test.
				t.Cleanup(func() { st.released.Do(func() { close(st.release) }) })
				r := &Runner{
					Ref:         sim.OVPSim,
					SUTs:        []*sim.Variant{sim.Spike},
					Configs:     []isa.Config{isa.RV32I},
					Workers:     1,
					CaseTimeout: 50 * time.Millisecond,
					NewSim: func(v *sim.Variant, p template.Platform) (sim.Sim, error) {
						s, err := sim.New(v, p)
						if err != nil || v != target {
							return s, err
						}
						return &reapingSim{s: s, st: st}, nil
					},
				}
				rep, err := r.Run(suite)
				if err != nil {
					t.Fatal(err)
				}
				return rep
			}
			// A reaped reference run is no cell's fault; its case is skipped.
			faults, skipped := 0, 1
			if target == sim.Spike {
				faults, skipped = 1, 0
			}
			want, got := run(false), run(true)
			c := &got.Cells[0][0]
			if c.HarnessFaults != faults {
				t.Fatalf("%d harness faults, want %d", c.HarnessFaults, faults)
			}
			c.HarnessFaults = 0
			if !reflect.DeepEqual(got.Cells, want.Cells) || !reflect.DeepEqual(got.Skipped, want.Skipped) {
				t.Fatalf("cells %+v, skipped %v; a clean run has %+v, %v", got.Cells, got.Skipped, want.Cells, want.Skipped)
			}
			if want.Skipped[0] != skipped {
				t.Fatalf("%d cases skipped, want %d", want.Skipped[0], skipped)
			}
		})
	}
}

// TestQuarantineReceivesComplianceFaults checks the offending input and the
// fault detail land in the quarantine directory.
func TestQuarantineReceivesComplianceFaults(t *testing.T) {
	qdir := t.TempDir()
	suite := &Suite{Cases: [][]byte{{0x13, 0x00, 0x00, 0x00}}}
	r := &Runner{
		Ref:           sim.OVPSim,
		SUTs:          []*sim.Variant{sim.Spike},
		Configs:       []isa.Config{isa.RV32I},
		Workers:       1,
		QuarantineDir: qdir,
		NewSim:        faultySUTFactory("Spike", func([]byte) sim.Fault { return sim.FaultPanic }, "boom", nil),
	}
	if _, err := r.Run(suite); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var sawInput, sawDetail bool
	for _, e := range ents {
		data, err := os.ReadFile(qdir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		switch {
		case strings.HasSuffix(e.Name(), ".bin") && bytes.Equal(data, suite.Cases[0]):
			sawInput = true
		case strings.HasSuffix(e.Name(), ".txt") && strings.Contains(string(data), "Spike panic: boom"):
			sawDetail = true
		}
	}
	if !sawInput || !sawDetail {
		t.Fatalf("quarantine incomplete: input=%t detail=%t (%d entries)", sawInput, sawDetail, len(ents))
	}
}

// TestQuarantineFailureLeavesStdoutAlone: a quarantine that cannot be
// written (its directory is a regular file) warns on stderr, so stdout,
// which carries rvcompliance -json's report, stays empty.
func TestQuarantineFailureLeavesStdoutAlone(t *testing.T) {
	qfile := filepath.Join(t.TempDir(), "quarantine")
	if err := os.WriteFile(qfile, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	r := &Runner{
		Ref:           sim.OVPSim,
		SUTs:          []*sim.Variant{sim.Spike},
		Configs:       []isa.Config{isa.RV32I},
		Workers:       1,
		QuarantineDir: qfile,
		NewSim:        faultySUTFactory("Spike", func([]byte) sim.Fault { return sim.FaultPanic }, "boom", nil),
	}
	stdout, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer stdout.Close()
	saved := os.Stdout
	os.Stdout = stdout
	rep, err := r.Run(&Suite{Cases: [][]byte{{0x13, 0x00, 0x00, 0x00}}})
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells[0][0].HarnessFaults == 0 {
		t.Fatal("no harness fault recorded")
	}
	if b, err := os.ReadFile(stdout.Name()); err != nil || len(b) != 0 {
		t.Errorf("stdout = %q (%v), want empty", b, err)
	}
}

// TestRunResumableContinues interrupts a checkpointed run and checks the
// resumed run completes with a report identical to an uninterrupted one,
// and that a fully checkpointed run replays nothing.
func TestRunResumableContinues(t *testing.T) {
	suite := handSuite()
	plain := DefaultRunner()
	plain.Workers = 1
	want, err := plain.Run(suite)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	// Interrupt: cancel the context as soon as the first row completes.
	ctx, cancel := context.WithCancel(context.Background())
	first := DefaultRunner()
	first.Workers = 1
	first.Progress = func(ev ProgressEvent) {
		if ev.Config == first.Configs[0] && ev.Sim == first.SUTs[len(first.SUTs)-1].Name {
			cancel()
		}
	}
	_, err = first.RunResumable(ctx, suite, dir)
	cancel()
	if err != nil && err != ErrInterrupted {
		t.Fatal(err)
	}

	second := DefaultRunner()
	second.Workers = 1
	got, err := second.RunResumable(context.Background(), suite, dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Cells, got.Cells) || !reflect.DeepEqual(want.Skipped, got.Skipped) {
		t.Fatalf("resumed report differs from uninterrupted run:\n  want %+v\n  got  %+v", want.Cells, got.Cells)
	}

	// Everything is checkpointed now: a third run must not build a single
	// simulator.
	builds := 0
	third := DefaultRunner()
	third.Workers = 1
	third.NewSim = func(v *sim.Variant, p template.Platform) (sim.Sim, error) {
		builds++
		return sim.New(v, p)
	}
	if _, err := third.RunResumable(context.Background(), suite, dir); err != nil {
		t.Fatal(err)
	}
	if builds != 0 {
		t.Fatalf("fully checkpointed run built %d simulators", builds)
	}
}

// TestResumableRejectsMismatchedCampaign verifies a checkpoint is bound to
// the runner fingerprint and the suite contents.
func TestResumableRejectsMismatchedCampaign(t *testing.T) {
	suite := &Suite{Cases: [][]byte{{0x13, 0x00, 0x00, 0x00}}}
	dir := t.TempDir()
	r := &Runner{Ref: sim.OVPSim, SUTs: []*sim.Variant{sim.Spike}, Configs: []isa.Config{isa.RV32I}, Workers: 1}
	if _, err := r.RunResumable(context.Background(), suite, dir); err != nil {
		t.Fatal(err)
	}
	other := &Runner{Ref: sim.OVPSim, SUTs: []*sim.Variant{sim.VP}, Configs: []isa.Config{isa.RV32I}, Workers: 1}
	if _, err := other.RunResumable(context.Background(), suite, dir); err == nil {
		t.Fatal("checkpoint accepted for a different runner configuration")
	}
	changed := &Suite{Cases: [][]byte{{0xff, 0xff, 0xff, 0xff}}}
	if _, err := r.RunResumable(context.Background(), changed, dir); err == nil {
		t.Fatal("checkpoint accepted for a different suite")
	}
	if _, err := r.RunResumable(context.Background(), suite, ""); err == nil {
		t.Fatal("RunResumable accepted an empty directory")
	}
}
