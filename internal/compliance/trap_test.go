package compliance

import (
	"strings"
	"testing"

	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// trapSuite is the directed-probe trap suite every trap test shares.
func trapSuite() *Suite {
	return &Suite{
		Cases:  fuzz.TrapDirectedCases(),
		Family: template.FamilyTrap,
		Origin: "directed trap probes",
	}
}

// TestTrapSuiteDetectsSeededPrivilegedBugs is the tentpole acceptance
// check: every seeded privileged-architecture defect class — mtval
// zeroing (Spike), vectored synchronous dispatch (VP), skipped MPIE
// restore (GRIFT), unmasked mstatus writes (sail) — produces at least one
// trap-record divergence against the reference under the trap suite.
// The user-level suite cannot see any of these (its template never reads
// mtval, never MRETs, and writes only an aligned direct-mode mtvec).
func TestTrapSuiteDetectsSeededPrivilegedBugs(t *testing.T) {
	r := &Runner{
		Ref:         sim.OVPSim,
		SUTs:        []*sim.Variant{sim.Spike, sim.VP, sim.Sail, sim.Grift},
		Configs:     []isa.Config{isa.RV32I},
		MaxExamples: 10,
	}
	rep, err := r.Run(trapSuite())
	if err != nil {
		t.Fatal(err)
	}
	for j, name := range rep.Sims {
		c := rep.Cells[0][j]
		if !c.Supported {
			t.Fatalf("%s: unsupported on RV32I", name)
		}
		if c.Categories[CatTrapRecord] == 0 {
			t.Errorf("%s: no trap-record divergence detected (cell: %+v)", name, c)
		}
	}
	if !strings.Contains(rep.BugFindings(), "trap-record") {
		t.Errorf("BugFindings does not render the trap-record category:\n%s", rep.BugFindings())
	}
}

// TestTrapSuiteCleanSimulatorMatchesReference: a defect-free SUT produces
// no trap-record mismatches — the probes diverge only through quirks, not
// through the recording machinery itself.
func TestTrapSuiteCleanSimulatorMatchesReference(t *testing.T) {
	r := &Runner{
		Ref:     sim.Reference,
		SUTs:    []*sim.Variant{sim.Reference},
		Configs: []isa.Config{isa.RV32I, isa.RV32IMC},
	}
	rep, err := r.Run(trapSuite())
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Configs {
		if n := rep.Cells[i][0].Mismatches; n != 0 {
			t.Errorf("%v: clean simulator has %d mismatches against itself", rep.Configs[i], n)
		}
	}
}

// TestTrapSuiteParallelBitIdentical: every worker count reproduces the
// one-worker trap-suite report exactly (the user-suite determinism
// guarantee extends to the trap family).
func TestTrapSuiteParallelBitIdentical(t *testing.T) {
	suite := trapSuite()
	run := func(workers int) *Report {
		r := &Runner{
			Ref:     sim.OVPSim,
			SUTs:    []*sim.Variant{sim.Spike, sim.VP, sim.Sail, sim.Grift},
			Configs: []isa.Config{isa.RV32I},
			Workers: workers,
		}
		rep, err := r.Run(suite)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	want := run(1)
	for _, workers := range []int{2, 3} {
		got := run(workers)
		if got.Render() != want.Render() || got.BugFindings() != want.BugFindings() {
			t.Fatalf("workers=%d: report differs from the one-worker run", workers)
		}
	}
}

// TestSuiteFamilySerialization: the trap family round-trips through the
// suite file format, and user-family files keep the historical header
// byte-for-byte (no family line).
func TestSuiteFamilySerialization(t *testing.T) {
	s := trapSuite()
	text := s.Format()
	if !strings.Contains(text, "# family: trap\n") {
		t.Fatalf("trap suite misses the family header:\n%s", text)
	}
	parsed, err := ParseSuite(text)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Family != template.FamilyTrap {
		t.Fatalf("parsed family = %v, want trap", parsed.Family)
	}
	if len(parsed.Cases) != len(s.Cases) {
		t.Fatalf("parsed %d cases, want %d", len(parsed.Cases), len(s.Cases))
	}

	user := &Suite{Cases: s.Cases, Origin: "x"}
	utext := user.Format()
	if strings.Contains(utext, "family") {
		t.Fatalf("user suite format mentions family:\n%s", utext)
	}
	uparsed, err := ParseSuite(utext)
	if err != nil {
		t.Fatal(err)
	}
	if uparsed.Family != template.FamilyUser {
		t.Fatalf("user suite parsed as family %v", uparsed.Family)
	}

	if _, err := ParseSuite("# family: bogus\n"); err == nil {
		t.Fatal("unknown family accepted")
	}
}

// TestCheckpointBindsFamily: the suite hash — and therefore the campaign
// checkpoint — distinguishes the families even for identical case bytes,
// while user-family hashes keep their historical value.
func TestCheckpointBindsFamily(t *testing.T) {
	cases := [][]byte{{0x13, 0x00, 0x00, 0x00}}
	user := &Suite{Cases: cases}
	trap := &Suite{Cases: cases, Family: template.FamilyTrap}
	if suiteHash(user) == suiteHash(trap) {
		t.Fatal("suite hash ignores the family: a checkpoint could resume across families")
	}
}

// TestClassifyAtTrapRecords pins the classifier's trap-region priority.
func TestClassifyAtTrapRecords(t *testing.T) {
	ref := make([]uint32, 40)
	got := make([]uint32, 40)
	got[36] = 1 // trap-region word differs (trapBase 32)
	if c := ClassifyAt(ref, got, 32); c != CatTrapRecord {
		t.Fatalf("trap-region diff classified as %v", c)
	}
	got[5] = 7 // register diff too: trap-record still dominates
	if c := ClassifyAt(ref, got, 32); c != CatTrapRecord {
		t.Fatalf("mixed diff classified as %v", c)
	}
	// With the region disabled (user family) the same diff set is a
	// register-class mismatch.
	if c := ClassifyAt(ref, got, 0); c != CatRegisterValue {
		t.Fatalf("user-family diff classified as %v", c)
	}
}
