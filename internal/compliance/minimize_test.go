package compliance

import (
	"reflect"
	"testing"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

func pair(t *testing.T, v *sim.Variant, cfg isa.Config) (*sim.Simulator, *sim.Simulator) {
	t.Helper()
	p := template.Platform{Layout: template.DefaultLayout, Cfg: cfg}
	ref, err := sim.New(sim.Reference, p)
	if err != nil {
		t.Fatal(err)
	}
	sut, err := sim.New(v, p)
	if err != nil {
		t.Fatal(err)
	}
	return ref, sut
}

func TestMinimizeCaseShrinksToTrigger(t *testing.T) {
	// A long test case whose only defect trigger is one unpaired SC.W in
	// the middle: minimization must isolate it.
	filler := enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})
	scw := enc(isa.Inst{Op: isa.OpSCW, Rd: 6, Rs1: 30, Rs2: 1})
	bs := stream(filler, filler, filler, scw, filler, filler, filler, filler)
	ref, sut := pair(t, sim.Grift, isa.RV32GC)
	min := MinimizeCase(bs, ref, sut, nil)
	if len(min) >= len(bs) {
		t.Fatalf("no shrinkage: %d -> %d", len(bs), len(min))
	}
	if len(min) != 4 {
		t.Errorf("minimal reproducer is %d bytes, want 4 (the SC.W alone): %x", len(min), min)
	}
	if classifyRun(ref, sut, min, nil) != failMismatch {
		t.Error("minimized case no longer mismatches")
	}
}

func TestMinimizeCasePreservesCrashKind(t *testing.T) {
	filler := enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1})
	bs := stream(filler, filler, 0x0000445b /* 32-bit sail crash pattern */, filler)
	ref, sut := pair(t, sim.Sail, isa.RV32I)
	if classifyRun(ref, sut, bs, nil) != failCrash {
		t.Fatal("setup: case must crash sail")
	}
	min := MinimizeCase(bs, ref, sut, nil)
	if classifyRun(ref, sut, min, nil) != failCrash {
		t.Fatalf("minimized case lost the crash: %x", min)
	}
	if len(min) != 4 {
		t.Errorf("crash reproducer is %d bytes, want 4", len(min))
	}
}

func TestMinimizeCaseNoFailureIsIdentity(t *testing.T) {
	bs := stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2}))
	ref, sut := pair(t, sim.Spike, isa.RV32I)
	min := MinimizeCase(bs, ref, sut, nil)
	if string(min) != string(bs) {
		t.Error("non-failing case must be returned unchanged")
	}
}

func TestExportAndVerifySignatures(t *testing.T) {
	suite := handSuite()
	dir := t.TempDir()
	for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC} {
		if err := ExportReferenceSignatures(suite, sim.OVPSim, cfg, dir, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Verifying from disk must reproduce the in-process Table I cells.
	inProc, err := DefaultRunner().Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	examples := 0
	for ci, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC} {
		for sj, v := range sim.UnderTest {
			cell, err := VerifyAgainstSignatures(suite, v, cfg, dir)
			if err != nil {
				t.Fatal(err)
			}
			// Whole cells: counters, category histogram and examples.
			if want := inProc.Cells[ci][sj]; !reflect.DeepEqual(*cell, want) {
				t.Errorf("%v/%s: disk verify %+v, in-process %+v", cfg, v.Name, *cell, want)
			}
			examples += len(cell.Examples)
		}
	}
	if examples == 0 {
		t.Fatal("no mismatch to compare: the hand suite must expose some")
	}
	// Unsupported configurations come back unsupported.
	if err := ExportReferenceSignatures(suite, sim.OVPSim, isa.RV32GC, dir, nil); err != nil {
		t.Fatal(err)
	}
	cell, err := VerifyAgainstSignatures(suite, sim.VP, isa.RV32GC, dir)
	if err != nil {
		t.Fatal(err)
	}
	if cell.Supported {
		t.Error("VP on RV32GC must be unsupported")
	}
	// Missing signatures fail cleanly.
	if _, err := VerifyAgainstSignatures(suite, sim.Spike, isa.RV32I, t.TempDir()); err == nil {
		t.Error("missing reference files must error")
	}
}
