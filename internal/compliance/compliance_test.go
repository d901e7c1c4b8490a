package compliance

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/sig"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

func enc(inst isa.Inst) uint32 { return isa.MustEncode(inst) }

func stream(words ...uint32) []byte {
	var out []byte
	for _, w := range words {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

// handSuite contains one trigger per seeded defect plus clean cases.
func handSuite() *Suite {
	return &Suite{
		Origin: "hand-written bug triggers",
		Cases: [][]byte{
			stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})), // clean
			stream(0x00000073),        // ECALL (Spike)
			stream(0x00000073 | 5<<7), // loose ECALL mask (VP)
			{0x02, 0x40, 0, 0},        // c.lwsp x0 (VP/GRIFT, C configs)
			stream(enc(isa.Inst{Op: isa.OpJAL, Rd: 1, Imm: 6})),                    // misaligned jump (GRIFT, no-C configs)
			stream(enc(isa.Inst{Op: isa.OpFADDS, Rd: 1, Rs1: 2, Rs2: 3, RM: 0})),   // F on IMC (GRIFT)
			stream(enc(isa.Inst{Op: isa.OpSCW, Rd: 5, Rs1: 30, Rs2: 1})),           // SC.W (GRIFT, GC)
			stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2}) | 0x13<<25), // loose funct7 (sail)
			{0x00, 0x84, 0, 0}, // sail crash pattern (C configs)
			stream(0x0000505b), // sail 32-bit crash pattern (all configs)
			stream(0x0000400b), // custom-0 (OVPSim reference defect)
			stream(0xffffffff), // plain illegal: everyone agrees
		},
	}
}

// skippingSuite mixes clean cases with ones that crash or hang the
// sail-riscv model — used with Sail as the *reference* to exercise the
// skip-accounting path.
func skippingSuite() *Suite {
	return &Suite{
		Origin: "reference-failure triggers",
		Cases: [][]byte{
			stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})), // clean
			stream(0x0000505b), // sail 32-bit crash pattern
			stream(enc(isa.Inst{Op: isa.OpADD, Rd: 6, Rs1: 2, Rs2: 3})), // clean
			stream(0x00002063 | isa.PutImmB(-4)&^(7<<12)),               // sail non-termination
			stream(0xffffffff), // clean illegal
			stream(0x0000505b), // second crash
			stream(enc(isa.Inst{Op: isa.OpADD, Rd: 7, Rs1: 3, Rs2: 4})), // clean
		},
	}
}

func TestTableIShape(t *testing.T) {
	rep, err := DefaultRunner().Run(handSuite())
	if err != nil {
		t.Fatal(err)
	}
	cell := func(cfg isa.Config, name string) Cell {
		for i, c := range rep.Configs {
			if c == cfg {
				for j, s := range rep.Sims {
					if s == name {
						return rep.Cells[i][j]
					}
				}
			}
		}
		t.Fatalf("cell %v/%s missing", cfg, name)
		return Cell{}
	}

	// "/" cells: VP and sail do not support RV32GC.
	if cell(isa.RV32GC, "VP").Supported || cell(isa.RV32GC, "sail-riscv").Supported {
		t.Error("VP/sail must be unsupported on RV32GC")
	}
	if cell(isa.RV32GC, "VP").String() != "/" {
		t.Errorf("unsupported cell renders %q", cell(isa.RV32GC, "VP").String())
	}

	// Every supported simulator shows mismatches on every configuration
	// (the custom-opcode defect of the reference alone guarantees that).
	for i, cfg := range rep.Configs {
		for j, name := range rep.Sims {
			c := rep.Cells[i][j]
			if !c.Supported {
				continue
			}
			if c.Mismatches == 0 {
				t.Errorf("%v/%s: no mismatches", cfg, name)
			}
		}
	}

	// sail crashes on C configurations.
	if cell(isa.RV32IMC, "sail-riscv").Crashes == 0 {
		t.Error("sail must crash on RV32IMC")
	}
	if cell(isa.RV32IMC, "sail-riscv").String() != "crash" {
		t.Errorf("sail cell renders %q", cell(isa.RV32IMC, "sail-riscv").String())
	}
	// ...and on RV32I via the 32-bit malformed pattern (Table I reports
	// "crash" for both rows).
	if cell(isa.RV32I, "sail-riscv").Crashes == 0 {
		t.Error("sail must crash on RV32I too")
	}

	// GRIFT's IMC misconfiguration makes IMC counts exceed I counts.
	if !(cell(isa.RV32IMC, "GRIFT").Mismatches > cell(isa.RV32I, "GRIFT").Mismatches) {
		t.Errorf("GRIFT: IMC=%d I=%d, want IMC > I",
			cell(isa.RV32IMC, "GRIFT").Mismatches, cell(isa.RV32I, "GRIFT").Mismatches)
	}

	// The render contains the header and a "/" and a "crash".
	text := rep.Render()
	for _, want := range []string{"riscvOVPsim", "RV32I", "RV32IMC", "RV32GC", "/", "crash"} {
		if !strings.Contains(text, want) {
			t.Errorf("render lacks %q:\n%s", want, text)
		}
	}
	if findings := rep.BugFindings(); !strings.Contains(findings, "GRIFT") {
		t.Errorf("findings lack GRIFT:\n%s", findings)
	}
}

func TestCleanSimulatorHasOnlyReferenceDefectMismatches(t *testing.T) {
	// Running the *reference model* as a SUT against the OVPSim reference:
	// every mismatch is the reference's own custom-opcode defect.
	r := DefaultRunner()
	r.SUTs = []*sim.Variant{sim.Reference}
	suite := handSuite()
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rep.Configs {
		c := rep.Cells[i][0]
		if c.Mismatches != 1 {
			t.Errorf("%v: reference-vs-ovpsim mismatches = %d, want exactly the custom-opcode case", rep.Configs[i], c.Mismatches)
		}
		if c.Categories[CatTrapCause] != 1 {
			t.Errorf("%v: category histogram %v", rep.Configs[i], c.Categories)
		}
	}
}

func TestClassify(t *testing.T) {
	ref := make([]uint32, 96)
	got := make([]uint32, 96)
	copy(got, ref)
	got[30] = 11
	if c := ClassifyAt(ref, got, 0); c != CatTrapCause {
		t.Errorf("trap cause: %v", c)
	}
	got = make([]uint32, 96)
	got[26] = 1
	if c := ClassifyAt(ref, got, 0); c != CatCompletionMarker {
		t.Errorf("completion marker: %v", c)
	}
	got = make([]uint32, 96)
	got[1] = 5
	if c := ClassifyAt(ref, got, 0); c != CatRegisterValue {
		t.Errorf("register value: %v", c)
	}
	got = make([]uint32, 96)
	got[40] = 5
	if c := ClassifyAt(ref, got, 0); c != CatFPValue {
		t.Errorf("fp value: %v", c)
	}
	if c := ClassifyAt(ref, ref[:10], 0); c != CatMissing {
		t.Errorf("missing: %v", c)
	}

	// Regression: word 31 (the sentinel slot on the integer side of the
	// signature) is a register-class diff. It used to set no flag at all,
	// so an x31-only diff classified correctly only by fall-through and a
	// {31, fp} diff was misfiled as fp-value.
	got = make([]uint32, 96)
	got[31] = 5
	if c := ClassifyAt(ref, got, 0); c != CatRegisterValue {
		t.Errorf("word-31-only diff: %v, want register-value", c)
	}
	got = make([]uint32, 96)
	got[31] = 5
	got[33] = 7
	if c := ClassifyAt(ref, got, 0); c != CatRegisterValue {
		t.Errorf("word 31 + fp diff: %v, want register-value", c)
	}
	// x26 and the trap-cause word keep their priority over word 31.
	got = make([]uint32, 96)
	got[31] = 5
	got[30] = 2
	if c := ClassifyAt(ref, got, 0); c != CatTrapCause {
		t.Errorf("word 31 + cause diff: %v, want trap-cause", c)
	}
}

// TestJudgeClassifiesUnderDontCare: judge files a mismatch by the words
// that differ under the don't-care rules, so an ignored word cannot pick
// the category. With word 26 (x26, the completion marker) always
// ignored, a case differing at words 26 and 40 mismatches because of
// word 40 and is an fp-value mismatch; a short signature is still a
// missing signature.
func TestJudgeClassifiesUnderDontCare(t *testing.T) {
	dc := &sig.DontCare{Rules: []sig.Rule{{Word: 26, Kind: sig.CondAlways}}}
	ref := make([]uint32, 96)
	marker := make([]uint32, 96)
	marker[26] = 1
	both := append([]uint32(nil), marker...)
	both[40] = 5
	var c Cell
	for i, got := range [][]uint32{marker, both, both[:10]} {
		c.judge(ref, sim.Outcome{Signature: got}, i, 8, 0, dc)
	}
	var want [catCount]int
	want[CatFPValue], want[CatMissing] = 1, 1
	if c.Mismatches != 2 || c.Categories != want || len(c.Examples) != 2 || c.Examples[0] != 1 {
		t.Errorf("mismatches %d, examples %v, categories %v; want cases 1 (fp-value) and 2 (missing-signature)",
			c.Mismatches, c.Examples, c.Categories)
	}
}

// TestJudgeAllocsZero: judge files a mismatching case, under don't-care
// rules or none, in one walk of the two signatures that builds no list
// of the differing words, so it allocates nothing once the cell's
// examples are full.
func TestJudgeAllocsZero(t *testing.T) {
	ref := make([]uint32, 96)
	got := append([]uint32(nil), ref...)
	got[3], got[26], got[40] = 1, 1, 5
	dc := &sig.DontCare{Rules: []sig.Rule{{Word: 26, Kind: sig.CondAlways}}}
	for _, rules := range []*sig.DontCare{nil, dc} {
		var c Cell
		allocs := testing.AllocsPerRun(100, func() {
			c.judge(ref, sim.Outcome{Signature: got}, 0, 0, 0, rules)
		})
		if allocs != 0 || c.Categories[CatRegisterValue] != c.Mismatches || c.Mismatches == 0 {
			t.Errorf("rules %v: %v allocations per judged case, categories %v of %d mismatches; want 0 allocations, all register-value",
				rules, allocs, c.Categories, c.Mismatches)
		}
	}
}

// TestSkippedAccounting: cases whose reference run crashes or times out
// are excluded from the comparison but must be *counted* — on the cells,
// on the per-config report totals, and in the render — instead of being
// silently absorbed into an unchanged Cases denominator.
func TestSkippedAccounting(t *testing.T) {
	suite := skippingSuite()
	r := &Runner{Ref: sim.Sail, SUTs: []*sim.Variant{sim.Reference}, Configs: []isa.Config{isa.RV32I}}
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	// Two crash cases + one non-terminating case fail on the sail
	// reference.
	if len(rep.Skipped) != 1 || rep.Skipped[0] != 3 {
		t.Fatalf("report skipped = %v, want [3]", rep.Skipped)
	}
	cell := rep.Cells[0][0]
	if cell.Skipped != 3 {
		t.Errorf("cell skipped = %d, want 3", cell.Skipped)
	}
	if rep.Cases != len(suite.Cases) {
		t.Errorf("cases = %d", rep.Cases)
	}
	text := rep.Render()
	if !strings.Contains(text, "3 of 7 cases skipped") {
		t.Errorf("render does not surface skips:\n%s", text)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"skipped": 3`) {
		t.Errorf("JSON does not surface skips:\n%s", raw)
	}

	// A run without reference failures renders no skip line.
	clean, err := DefaultRunner().Run(handSuite())
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(clean.Render(), "skipped") {
		t.Errorf("clean run mentions skips:\n%s", clean.Render())
	}
	for _, n := range clean.Skipped {
		if n != 0 {
			t.Errorf("clean run skipped = %v", clean.Skipped)
		}
	}
}

// TestSuiteSerialization round-trips a suite through Format, ParseSuite,
// Save and LoadSuite. Its empty case must survive (it used to be written
// as a blank line that ParseSuite skipped), and a header that counts more
// cases than the text holds must fail.
func TestSuiteSerialization(t *testing.T) {
	s := handSuite()
	s.Cases = append(s.Cases[:2:2], append([][]byte{{}}, s.Cases[2:]...)...)
	text := s.Format()
	back, err := ParseSuite(text)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Cases) != len(s.Cases) || back.Origin != s.Origin {
		t.Fatalf("roundtrip: %d cases, origin %q", len(back.Cases), back.Origin)
	}
	for i := range s.Cases {
		if string(back.Cases[i]) != string(s.Cases[i]) {
			t.Errorf("case %d differs", i)
		}
	}
	if _, err := ParseSuite("zz not hex"); err == nil {
		t.Error("bad hex must fail")
	}
	if _, err := ParseSuite(text[:strings.LastIndex(strings.TrimSuffix(text, "\n"), "\n")+1]); err == nil {
		t.Error("a suite missing its last case must fail")
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "suite.txt")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSuite(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded.Cases) != len(s.Cases) {
		t.Errorf("loaded %d cases", len(loaded.Cases))
	}
}

func TestWriteASM(t *testing.T) {
	s := &Suite{Cases: [][]byte{stream(0xffffffff), stream(0x00000073)}}
	dir := t.TempDir()
	if err := s.WriteASM(dir, template.DefaultLayout); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(dir, "test_00000.S"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), ".word 0xffffffff") {
		t.Error("exported ASM lacks the bytestream word")
	}
	if !strings.Contains(string(b), "trap_handler:") {
		t.Error("exported ASM lacks the template")
	}
}

func TestDontCareComparison(t *testing.T) {
	// The section VI extension: a don't-care rule suppresses a mismatch.
	r := DefaultRunner()
	r.SUTs = []*sim.Variant{sim.Spike}
	r.Configs = []isa.Config{isa.RV32I}
	suite := &Suite{Cases: [][]byte{stream(0x00000073)}}
	rep, err := r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells[0][0].Mismatches != 1 {
		t.Fatalf("spike ecall mismatch missing: %+v", rep.Cells[0][0])
	}
	// Masking out the completion marker hides the defect.
	r.DontCare = &sig.DontCare{Rules: []sig.Rule{{Word: 26, Kind: sig.CondAlways}}}
	rep, err = r.Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Cells[0][0].Mismatches != 0 {
		t.Errorf("don't-care did not suppress: %+v", rep.Cells[0][0])
	}
}

// TestRunnerDeterministic: the same suite always yields the identical
// report (crash capture and counters have no hidden state).
func TestRunnerDeterministic(t *testing.T) {
	suite := handSuite()
	a, err := DefaultRunner().Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	b, err := DefaultRunner().Run(suite)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Cells {
		for j := range a.Cells[i] {
			ca, cb := a.Cells[i][j], b.Cells[i][j]
			if ca.Mismatches != cb.Mismatches || ca.Crashes != cb.Crashes || ca.Timeouts != cb.Timeouts {
				t.Errorf("cell %d/%d differs between runs: %+v vs %+v", i, j, ca, cb)
			}
		}
	}
}

func TestAnalyzeSuite(t *testing.T) {
	s := &Suite{Cases: [][]byte{
		stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})), // valid I
		stream(0xffffffff), // illegal
		stream(enc(isa.Inst{Op: isa.OpMUL, Rd: 5, Rs1: 1, Rs2: 2}), 0xffffffff), // M + illegal
		{0x7d, 0x15, 0, 0}, // c.addi (compressed) + zero halfword (illegal)
		stream(enc(isa.Inst{Op: isa.OpFADDD, Rd: 1, Rs1: 2, Rs2: 3, RM: 0})),
	}}
	st := AnalyzeSuite(s)
	if st.Cases != 5 {
		t.Fatalf("cases = %d", st.Cases)
	}
	if st.CasesWithIllegal != 3 {
		t.Errorf("cases with illegal = %d, want 3", st.CasesWithIllegal)
	}
	if st.CasesWithExt[isa.ExtM] != 1 || st.CasesWithExt[isa.ExtD] != 1 {
		t.Errorf("extension census: %v", st.CasesWithExt)
	}
	if st.CompressedWords < 2 {
		t.Errorf("compressed words = %d", st.CompressedWords)
	}
	if st.OpsCovered < 3 || st.OpsCovered > 6 {
		t.Errorf("ops covered = %d", st.OpsCovered)
	}
	out := st.String()
	for _, want := range []string{"5 cases", "illegal", "instructions covered"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
	// The official positive suite has zero negative payload; a fuzzer
	// suite has plenty (checked in the fuzz package's stats usage).
	official, err := OfficialStyleSuite(isa.RV32GC)
	if err != nil {
		t.Fatal(err)
	}
	pos := AnalyzeSuite(official)
	if pos.IllegalWords != 0 || pos.CasesWithIllegal != 0 {
		t.Errorf("positive suite has negative payload: %+v", pos)
	}
	if pos.OpsCovered < 100 {
		t.Errorf("positive suite covers only %d ops", pos.OpsCovered)
	}
}

func TestReportJSON(t *testing.T) {
	rep, err := DefaultRunner().Run(handSuite())
	if err != nil {
		t.Fatal(err)
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Reference string `json:"reference"`
		Cases     int    `json:"cases"`
		Rows      []struct {
			ISA   string `json:"isa"`
			Cells []struct {
				Simulator  string `json:"simulator"`
				Supported  bool   `json:"supported"`
				Mismatches int    `json:"mismatches"`
				Crashes    int    `json:"crashes"`
			} `json:"cells"`
		} `json:"rows"`
	}
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, raw)
	}
	if back.Reference != "riscvOVPsim" || len(back.Rows) != 3 {
		t.Fatalf("structure: %+v", back)
	}
	for i, row := range back.Rows {
		for j, cell := range row.Cells {
			want := rep.Cells[i][j]
			if cell.Mismatches != want.Mismatches || cell.Crashes != want.Crashes || cell.Supported != want.Supported {
				t.Errorf("%s/%s: JSON %+v != report %+v", row.ISA, cell.Simulator, cell, want)
			}
		}
	}
}
