package filter

import (
	"testing"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/isa"
)

// both runs a bytestream through the fixpoint engine and the exhaustive
// oracle in trap mode and checks they agree on the verdict.
func bothTrap(t *testing.T, bs []byte) (Result, Result) {
	t.Helper()
	fr := (&Filter{Trap: true}).Check(bs)
	er := (&Exhaustive{Trap: true}).Check(bs)
	if fr.Accepted != er.Accepted && er.Reason != analysis.ReasonPathBudget {
		t.Fatalf("engines disagree: fixpoint %v, exhaustive %v", fr, er)
	}
	return fr, er
}

// TestTrapModeAcceptsDesiredEvents: the trap suite's whole point — the
// events the user filter rejects become recorded, resumable signature
// content.
func TestTrapModeAcceptsDesiredEvents(t *testing.T) {
	cases := []struct {
		name string
		bs   []byte
		user analysis.Reason // the user-mode engine's verdict for contrast
	}{
		{"illegal word", stream(0xffffffff), analysis.ReasonNone}, // user mode also accepts (exit)
		{"ebreak", stream(enc(isa.Inst{Op: isa.OpEBREAK})), analysis.ReasonForbidden},
		{"csr read cycle", stream(enc(isa.Inst{Op: isa.OpCSRRS, Rd: 9, Rs1: 0, CSR: 0x342})), analysis.ReasonForbidden},
		{"csr write mscratch", stream(enc(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: 5, CSR: 0x340})), analysis.ReasonForbidden},
		{"mtvec read-only", stream(enc(isa.Inst{Op: isa.OpCSRRS, Rd: 9, Rs1: 0, CSR: 0x305})), analysis.ReasonForbidden},
		{"mtvec csrrsi zero imm", stream(enc(isa.Inst{Op: isa.OpCSRRSI, Rd: 9, Imm: 0, CSR: 0x305})), analysis.ReasonForbidden},
		{"sfence.vma", stream(enc(isa.Inst{Op: isa.OpSFENCEVMA, Rs1: 1, Rs2: 2})), analysis.ReasonForbidden},
		{"unaligned load", stream(enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: 2})), analysis.ReasonUnalignedImm},
		{"dirty-base load", stream(enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 9, Imm: 0})), analysis.ReasonDirtyAddress},
		{"dirty-base lr.w", stream(enc(isa.Inst{Op: isa.OpLRW, Rd: 5, Rs1: 9})), analysis.ReasonDirtyAddress},
		{"unaligned store clean base", stream(enc(isa.Inst{Op: isa.OpSW, Rs1: 30, Rs2: 5, Imm: 1})), analysis.ReasonUnalignedImm},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr, _ := bothTrap(t, tc.bs)
			if !fr.Accepted {
				t.Fatalf("trap mode dropped %s: %v", tc.name, fr)
			}
			ur := (&Filter{}).Check(tc.bs)
			if ur.Reason != tc.user {
				t.Fatalf("user-mode contrast for %s: got %v, want reason %v", tc.name, ur, tc.user)
			}
		})
	}
}

// TestTrapModeForbidden: the instructions that escape the recording
// handler's control stay forbidden in both engines.
func TestTrapModeForbidden(t *testing.T) {
	cases := []struct {
		name string
		bs   []byte
	}{
		{"jalr", stream(enc(isa.Inst{Op: isa.OpJALR, Rd: 0, Rs1: 1}))},
		{"wfi", stream(enc(isa.Inst{Op: isa.OpWFI}))},
		{"mret", stream(enc(isa.Inst{Op: isa.OpMRET}))},
		{"sret", stream(enc(isa.Inst{Op: isa.OpSRET}))},
		{"uret", stream(enc(isa.Inst{Op: isa.OpURET}))},
		{"csrrw mtvec", stream(enc(isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: 5, CSR: 0x305}))},
		{"csrrwi mtvec", stream(enc(isa.Inst{Op: isa.OpCSRRWI, Rd: 0, Imm: 0, CSR: 0x305}))},
		{"csrrs mtvec set bits", stream(enc(isa.Inst{Op: isa.OpCSRRS, Rd: 0, Rs1: 5, CSR: 0x305}))},
		{"csrrci mtvec clear bits", stream(enc(isa.Inst{Op: isa.OpCSRRCI, Rd: 0, Imm: 1, CSR: 0x305}))},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fr, er := bothTrap(t, tc.bs)
			if fr.Reason != analysis.ReasonForbidden {
				t.Fatalf("fixpoint: got %v, want forbidden", fr)
			}
			if er.Reason != analysis.ReasonForbidden {
				t.Fatalf("exhaustive: got %v, want forbidden", er)
			}
		})
	}
}

// TestTrapModeDirtyStoreDropped: stores (plain, SC, AMO) keep the
// clean-base rule even in trap mode — a wild store could corrupt the
// code, the handler, or the signature.
func TestTrapModeDirtyStoreDropped(t *testing.T) {
	for _, tc := range []struct {
		name string
		bs   []byte
	}{
		{"sw", stream(enc(isa.Inst{Op: isa.OpSW, Rs1: 9, Rs2: 5, Imm: 0}))},
		{"sc.w", stream(enc(isa.Inst{Op: isa.OpSCW, Rd: 5, Rs1: 9, Rs2: 6}))},
		{"amoadd.w", stream(enc(isa.Inst{Op: isa.OpAMOADDW, Rd: 5, Rs1: 9, Rs2: 6}))},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fr, er := bothTrap(t, tc.bs)
			if fr.Reason != analysis.ReasonDirtyAddress || er.Reason != analysis.ReasonDirtyAddress {
				t.Fatalf("got fixpoint %v, exhaustive %v, want dirty address", fr, er)
			}
		})
	}
}

// TestTrapModeResume: deliberate traps resume at (pc&^3)+4 — a chain of
// illegal words threads through to the exit as exactly one path in both
// engines.
func TestTrapModeResume(t *testing.T) {
	fr, er := bothTrap(t, stream(0xffffffff, 0xffffffff, enc(isa.Inst{Op: isa.OpECALL})))
	if !fr.Accepted || fr.Paths != 1 {
		t.Fatalf("fixpoint: got %v, want accepted with 1 path", fr)
	}
	if !er.Accepted || er.Paths != 1 {
		t.Fatalf("exhaustive: got %v, want accepted with 1 path", er)
	}
}

// TestTrapModeResumeSkipsHalfword: a compressed trap site in the lower
// halfword of a word resumes past its upper halfword, so a forbidden
// instruction there is dead code.
func TestTrapModeResumeSkipsHalfword(t *testing.T) {
	// c.ebreak (0x9002) at +0 traps and resumes at +4; +2 is never decoded.
	bs := []byte{0x02, 0x90, 0xff, 0xff}
	fr, er := bothTrap(t, bs)
	if !fr.Accepted || !er.Accepted {
		t.Fatalf("got fixpoint %v, exhaustive %v, want accepted", fr, er)
	}
}

// TestTrapModeResumeFork: a compressed non-trapping instruction in the
// lower halfword forks fall-through (+2) and conservative resume (+4)
// paths.
func TestTrapModeResumeFork(t *testing.T) {
	// c.nop at +0, c.nop at +2: paths 0→2→4 and 0→4.
	bs := []byte{0x01, 0x00, 0x01, 0x00}
	fr, er := bothTrap(t, bs)
	if !fr.Accepted || fr.Paths != 2 {
		t.Fatalf("fixpoint: got %v, want accepted with 2 paths", fr)
	}
	if !er.Accepted || er.Paths != 2 {
		t.Fatalf("exhaustive: got %v, want accepted with 2 paths", er)
	}
}

// TestTrapModeControlFlowRules: loops and out-of-bounds control flow stay
// dropped in trap mode.
func TestTrapModeControlFlowRules(t *testing.T) {
	fr, _ := bothTrap(t, stream(enc(isa.Inst{Op: isa.OpBEQ, Rs1: 5, Rs2: 6, Imm: 0})))
	if fr.Reason != analysis.ReasonLoop {
		t.Fatalf("self-branch: got %v, want loop", fr)
	}
	fr, _ = bothTrap(t, stream(enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 1 << 12})))
	if fr.Reason != analysis.ReasonOutOfBounds {
		t.Fatalf("wild jump: got %v, want out of bounds", fr)
	}
}

// TestTrapForbiddenPredicate pins the analysis-level predicate the
// engines and the mutator share.
func TestTrapForbiddenPredicate(t *testing.T) {
	for _, tc := range []struct {
		inst isa.Inst
		want bool
	}{
		{isa.Inst{Op: isa.OpJALR, Rd: 1, Rs1: 2}, true},
		{isa.Inst{Op: isa.OpWFI}, true},
		{isa.Inst{Op: isa.OpMRET}, true},
		{isa.Inst{Op: isa.OpEBREAK}, false},
		{isa.Inst{Op: isa.OpECALL}, false},
		{isa.Inst{Op: isa.OpCSRRW, Rs1: 1, CSR: 0x305}, true},
		{isa.Inst{Op: isa.OpCSRRW, Rs1: 1, CSR: 0x340}, false},
		{isa.Inst{Op: isa.OpCSRRS, Rs1: 0, CSR: 0x305}, false},
		{isa.Inst{Op: isa.OpCSRRS, Rs1: 3, CSR: 0x305}, true},
		{isa.Inst{Op: isa.OpCSRRSI, Imm: 0, CSR: 0x305}, false},
		{isa.Inst{Op: isa.OpCSRRSI, Imm: 2, CSR: 0x305}, true},
		{isa.Inst{Op: isa.OpSFENCEVMA, Rs1: 1}, false},
	} {
		if got := analysis.TrapForbidden(tc.inst); got != tc.want {
			t.Errorf("TrapForbidden(%v %#x) = %v, want %v", tc.inst.Op, tc.inst.CSR, got, tc.want)
		}
	}
}
