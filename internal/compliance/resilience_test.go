package compliance

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
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
