package hart

import (
	"testing"
	"testing/quick"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/softfloat"
)

func TestResetState(t *testing.T) {
	h := New(isa.RV32GC)
	if h.Mstatus&MstatusFS != FSInitial {
		t.Errorf("FP config must reset FS to Initial: %#x", h.Mstatus)
	}
	h2 := New(isa.RV32I)
	if h2.Mstatus != 0 {
		t.Errorf("RV32I mstatus = %#x", h2.Mstatus)
	}
	h.X[5] = 7
	h.PC = 100
	h.Reset()
	if h.X[5] != 0 || h.PC != 0 {
		t.Error("Reset must clear registers")
	}
}

func TestX0Invariant(t *testing.T) {
	h := New(isa.RV32I)
	f := func(v uint32) bool {
		h.WriteX(0, v)
		return h.ReadX(0) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTrapStateMachine(t *testing.T) {
	h := New(isa.RV32I)
	h.Mtvec = 0x800
	h.Mstatus |= MstatusMIE
	h.PC = 0x124
	h.Trap(CauseIllegalInstruction, 0xdead)
	if h.PC != 0x800 || h.Mepc != 0x124 || h.Mcause != 2 || h.Mtval != 0xdead {
		t.Errorf("trap state: pc=%#x mepc=%#x mcause=%d mtval=%#x", h.PC, h.Mepc, h.Mcause, h.Mtval)
	}
	if h.Mstatus&MstatusMIE != 0 || h.Mstatus&MstatusMPIE == 0 {
		t.Errorf("mstatus after trap: %#x", h.Mstatus)
	}
	h.MRet()
	if h.PC != 0x124 || h.Mstatus&MstatusMIE == 0 {
		t.Errorf("mret state: pc=%#x mstatus=%#x", h.PC, h.Mstatus)
	}
	// Vectored mtvec low bits are masked for the base.
	h.Mtvec = 0x801 // mode=1 (vectored)
	h.Trap(CauseBreakpoint, 0)
	if h.PC != 0x800 {
		t.Errorf("vectored sync trap pc = %#x", h.PC)
	}
}

func TestCSRReadWrite(t *testing.T) {
	h := New(isa.RV32GC)
	// mscratch holds arbitrary values.
	if err := h.WriteCSR(CSRMscratch, 0xffffffff); err != nil {
		t.Fatal(err)
	}
	if v, _ := h.ReadCSR(CSRMscratch); v != 0xffffffff {
		t.Errorf("mscratch = %#x", v)
	}
	// mepc clears bit 0.
	_ = h.WriteCSR(CSRMepc, 0x1235)
	if v, _ := h.ReadCSR(CSRMepc); v != 0x1234 {
		t.Errorf("mepc = %#x", v)
	}
	// misa reflects the configuration and ignores writes.
	v, _ := h.ReadCSR(CSRMisa)
	if v != isa.RV32GC.MISA() {
		t.Errorf("misa = %#x", v)
	}
	_ = h.WriteCSR(CSRMisa, 0)
	if v, _ := h.ReadCSR(CSRMisa); v != isa.RV32GC.MISA() {
		t.Error("misa must be WARL-fixed")
	}
	// Read-only CSRs reject writes.
	if err := h.WriteCSR(CSRMhartid, 1); err == nil {
		t.Error("mhartid write must fail")
	}
	if v, err := h.ReadCSR(CSRMhartid); err != nil || v != 0 {
		t.Errorf("mhartid = %d, %v", v, err)
	}
	// Nonexistent CSR.
	if _, err := h.ReadCSR(0x5c0); err == nil {
		t.Error("nonexistent CSR read must fail")
	}
	if err := h.WriteCSR(0x5c0, 0); err == nil {
		t.Error("nonexistent CSR write must fail")
	}
	// fcsr composes frm and fflags.
	_ = h.WriteCSR(CSRFcsr, 0x7f)
	if h.Frm != 3 || h.Fflags != 0x1f {
		t.Errorf("fcsr decompose: frm=%d fflags=%#x", h.Frm, h.Fflags)
	}
	if v, _ := h.ReadCSR(CSRFcsr); v != 0x7f {
		t.Errorf("fcsr = %#x", v)
	}
	if v, _ := h.ReadCSR(CSRFrm); v != 3 {
		t.Errorf("frm = %d", v)
	}
	// Counter halves.
	h.Mcycle = 0x1122334455667788
	if v, _ := h.ReadCSR(CSRMcycle); v != 0x55667788 {
		t.Errorf("mcycle = %#x", v)
	}
	if v, _ := h.ReadCSR(CSRMcycleH); v != 0x11223344 {
		t.Errorf("mcycleh = %#x", v)
	}
	_ = h.WriteCSR(CSRMinstretH, 0xaa)
	_ = h.WriteCSR(CSRMinstret, 0xbb)
	if h.Minstret != 0xaa000000bb {
		t.Errorf("minstret = %#x", h.Minstret)
	}
}

func TestFPCSRsGatedByConfig(t *testing.T) {
	h := New(isa.RV32I)
	if _, err := h.ReadCSR(CSRFcsr); err == nil {
		t.Error("fcsr without F must fail")
	}
	g := New(isa.RV32GC)
	g.Mstatus &^= MstatusFS
	if _, err := g.ReadCSR(CSRFflags); err == nil {
		t.Error("fflags with FS=Off must fail")
	}
}

func TestNaNBoxingThroughRegisters(t *testing.T) {
	h := New(isa.RV32GC)
	h.WriteF32(3, 0x3f800000)
	if h.F[3] != 0xffffffff3f800000 {
		t.Errorf("boxed = %#x", h.F[3])
	}
	if h.ReadF32(3) != 0x3f800000 {
		t.Errorf("unboxed read = %#x", h.ReadF32(3))
	}
	h.WriteF64(3, 0x3ff0000000000000)
	if h.ReadF32(3) != softfloat.QNaN32 {
		t.Error("reading a double as single must canonicalize")
	}
	// Without D, no boxing happens.
	f := New(isa.Config{Ext: isa.ExtI | isa.ExtF | isa.ExtZicsr | isa.ExtPriv})
	f.WriteF32(1, 0x12345678)
	if f.F[1] != 0x12345678 || f.ReadF32(1) != 0x12345678 {
		t.Errorf("F-only register image: %#x", f.F[1])
	}
}

func TestFSDirtyTracking(t *testing.T) {
	h := New(isa.RV32GC)
	if h.Mstatus&MstatusFS == FSDirty {
		t.Fatal("FS must not start dirty")
	}
	h.WriteF32(0, 1)
	if h.Mstatus&MstatusFS != FSDirty {
		t.Error("FP write must dirty FS")
	}
	h2 := New(isa.RV32GC)
	h2.AccrueFlags(softfloat.NX)
	if h2.Fflags != uint8(softfloat.NX) || h2.Mstatus&MstatusFS != FSDirty {
		t.Error("flag accrual must dirty FS")
	}
	h3 := New(isa.RV32GC)
	h3.AccrueFlags(0)
	if h3.Mstatus&MstatusFS == FSDirty {
		t.Error("empty flag accrual must not dirty FS")
	}
}

func TestDynRM(t *testing.T) {
	h := New(isa.RV32GC)
	if rm, ok := h.DynRM(2); !ok || rm != softfloat.RDN {
		t.Errorf("static rm: %v %v", rm, ok)
	}
	if _, ok := h.DynRM(5); ok {
		t.Error("rm=5 must be invalid")
	}
	h.Frm = 4
	if rm, ok := h.DynRM(7); !ok || rm != softfloat.RMM {
		t.Errorf("dynamic rm: %v %v", rm, ok)
	}
	h.Frm = 7
	if _, ok := h.DynRM(7); ok {
		t.Error("dynamic rm with frm=7 must be invalid")
	}
}

// TestTrapMasksOddPC pins the satellite-2 fix: the hardware trap path
// must clear mepc bit 0 exactly like the CSR-write path, so an odd
// faulting PC reads back even and MRet returns to the masked address.
func TestTrapMasksOddPC(t *testing.T) {
	h := New(isa.RV32IMC)
	h.Mtvec = 0x100
	h.PC = 0x2003 // odd PC (unreachable via jumps, but the masks must agree)
	h.Trap(CauseIllegalInstruction, 0)
	if h.Mepc != 0x2002 {
		t.Errorf("Trap mepc = %#x, want bit 0 cleared (0x2002)", h.Mepc)
	}
	if err := h.WriteCSR(CSRMepc, 0x2003); err != nil {
		t.Fatal(err)
	}
	if h.Mepc != 0x2002 {
		t.Errorf("WriteCSR mepc = %#x, want 0x2002", h.Mepc)
	}
	h.MRet()
	if h.PC != 0x2002 {
		t.Errorf("MRet PC = %#x, want 0x2002", h.PC)
	}
}

// TestMtvecBaseMasking: mtvec bit 1 is reserved (reads zero), bit 0
// selects vectored mode — and a faithful hart must dispatch synchronous
// exceptions to the base regardless of the mode bit.
func TestMtvecBaseMasking(t *testing.T) {
	h := New(isa.RV32I)
	if err := h.WriteCSR(CSRMtvec, 0x107); err != nil {
		t.Fatal(err)
	}
	if h.Mtvec != 0x105 {
		t.Errorf("mtvec = %#x, want bit 1 masked (0x105)", h.Mtvec)
	}
	h.PC = 0x40
	h.Trap(CauseIllegalInstruction, 0)
	if h.PC != 0x104 {
		t.Errorf("sync trap with vectored mtvec: PC = %#x, want base 0x104", h.PC)
	}
}

// TestMPIERoundTrip: MIE is saved into MPIE on Trap and restored on
// MRet, with MPIE set afterwards, for both initial MIE states.
func TestMPIERoundTrip(t *testing.T) {
	for _, mie := range []bool{false, true} {
		h := New(isa.RV32I)
		h.Mtvec = 0x100
		if mie {
			h.Mstatus |= MstatusMIE
		}
		h.PC = 0x20
		h.Trap(CauseBreakpoint, 0x20)
		if h.Mstatus&MstatusMIE != 0 {
			t.Errorf("mie=%v: MIE not cleared on trap", mie)
		}
		if got := h.Mstatus&MstatusMPIE != 0; got != mie {
			t.Errorf("mie=%v: MPIE = %v after trap", mie, got)
		}
		h.MRet()
		if got := h.Mstatus&MstatusMIE != 0; got != mie {
			t.Errorf("mie=%v: MIE = %v after mret, want restored", mie, got)
		}
		if h.Mstatus&MstatusMPIE == 0 {
			t.Errorf("mie=%v: MPIE must be set after mret", mie)
		}
		if h.PC != 0x20 {
			t.Errorf("mie=%v: mret PC = %#x, want 0x20", mie, h.PC)
		}
	}
}

func TestQuirkMtvalZero(t *testing.T) {
	h := New(isa.RV32I)
	h.Quirks.MtvalZero = true
	h.Mtvec = 0x100
	h.Trap(CauseIllegalInstruction, 0xdeadbeef)
	if h.Mtval != 0 {
		t.Errorf("mtval = %#x, want quirk-zeroed", h.Mtval)
	}
}

func TestQuirkVectoredSyncTrap(t *testing.T) {
	h := New(isa.RV32I)
	h.Quirks.VectoredSyncTrap = true
	if err := h.WriteCSR(CSRMtvec, 0x101); err != nil { // vectored mode
		t.Fatal(err)
	}
	h.Trap(CauseIllegalInstruction, 0)
	if h.PC != 0x100+4*CauseIllegalInstruction {
		t.Errorf("vectored quirk: PC = %#x, want base+4*cause", h.PC)
	}
	// Direct mode must stay unaffected even with the quirk present.
	if err := h.WriteCSR(CSRMtvec, 0x100); err != nil {
		t.Fatal(err)
	}
	h.Trap(CauseIllegalInstruction, 0)
	if h.PC != 0x100 {
		t.Errorf("direct mode with quirk: PC = %#x, want base", h.PC)
	}
}

func TestQuirkMRETIgnoresMPIE(t *testing.T) {
	h := New(isa.RV32I)
	h.Quirks.MRETIgnoresMPIE = true
	h.Mtvec = 0x100
	h.Mstatus |= MstatusMIE
	h.Trap(CauseECallM, 0)
	before := h.Mstatus
	h.MRet()
	if h.Mstatus != before {
		t.Errorf("quirky mret changed mstatus %#x -> %#x", before, h.Mstatus)
	}
	if h.Mstatus&MstatusMIE != 0 {
		t.Error("quirky mret must not restore MIE")
	}
}

func TestQuirkCSRWriteNoMask(t *testing.T) {
	h := New(isa.RV32I)
	h.Quirks.CSRWriteNoMask = true
	if err := h.WriteCSR(CSRMstatus, 0xdeadbeef); err != nil {
		t.Fatal(err)
	}
	if h.Mstatus != 0xdeadbeef {
		t.Errorf("mstatus = %#x, want unmasked 0xdeadbeef", h.Mstatus)
	}
}

func TestResetPreservesQuirks(t *testing.T) {
	h := New(isa.RV32I)
	h.Quirks = Quirks{MtvalZero: true, VectoredSyncTrap: true}
	h.Reset()
	if !h.Quirks.MtvalZero || !h.Quirks.VectoredSyncTrap {
		t.Error("Reset must preserve platform quirks")
	}
}
