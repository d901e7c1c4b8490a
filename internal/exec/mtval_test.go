package exec

import (
	"testing"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// newExec16 loads a program expressed as halfwords (for compressed and
// deliberately malformed streams) with the standard halting handler.
func newExec16(cfg isa.Config, halves ...uint16) *Executor {
	m := mem.New(0, 0x8000)
	for i, h := range halves {
		if err := m.Write16(uint32(i*2), h); err != nil {
			panic(err)
		}
	}
	if err := m.Write32(testHandler, enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr})); err != nil {
		panic(err)
	}
	cpu := hart.New(cfg)
	cpu.Mtvec = testHandler
	e := New(cpu, m, isa.Ref)
	e.HaltAddr = testHaltAddr
	return e
}

// stepTwiceAt0 fetches and executes the instruction at address 0 twice,
// calling check after each step: the first decode fills the memo, the
// second is served from it.
func stepTwiceAt0(e *Executor, check func(pass int)) {
	for pass := range 2 {
		e.CPU.PC = 0
		e.Step()
		check(pass)
	}
}

// TestMtvalCompressedIllegal pins the satellite-1 audit result: for a
// faulting *compressed* encoding, mtval must hold the zero-extended
// 16-bit halfword — never a 32-bit expansion — whether the decode is
// fresh or memoized. 0x9c41 is a reserved RVC encoding (c.subw,
// RV64-only) that decodes to OpIllegal with the raw halfword preserved.
func TestMtvalCompressedIllegal(t *testing.T) {
	const bad = 0x9c41
	if in := isa.Ref.DecodeC(bad); in.Op != isa.OpIllegal {
		t.Fatalf("test premise: %#x decodes to %v, want illegal", bad, in.Op)
	}
	e := newExec16(isa.RV32IMC, bad)
	stepTwiceAt0(e, func(pass int) {
		if e.CPU.Mcause != hart.CauseIllegalInstruction {
			t.Fatalf("pass %d: mcause = %d", pass, e.CPU.Mcause)
		}
		if e.CPU.Mtval != bad {
			t.Errorf("pass %d: mtval = %#x, want zero-extended halfword %#x", pass, e.CPU.Mtval, bad)
		}
	})
}

// TestMtvalCompressedWithoutC: on a configuration without the C
// extension, a compressed halfword is simply an illegal 16-bit encoding;
// mtval must hold that halfword, not an expansion or the full word the
// fetch window happens to contain.
func TestMtvalCompressedWithoutC(t *testing.T) {
	const nop = 0x0001 // c.nop: legal under C, illegal without it
	e := newExec16(isa.RV32I, nop, 0xffff)
	stepTwiceAt0(e, func(pass int) {
		if e.CPU.Mcause != hart.CauseIllegalInstruction {
			t.Fatalf("pass %d: mcause = %d", pass, e.CPU.Mcause)
		}
		if e.CPU.Mtval != nop {
			t.Errorf("pass %d: mtval = %#x, want %#x", pass, e.CPU.Mtval, uint32(nop))
		}
	})
}

// TestMtval32BitIllegal: a faulting 32-bit encoding reports the full
// instruction word.
func TestMtval32BitIllegal(t *testing.T) {
	const bad = 0xfe00f0ff // 32-bit shape (low bits 11), no valid opcode
	if in := isa.Ref.Decode32(bad); in.Op != isa.OpIllegal {
		t.Fatalf("test premise: %#x decodes to %v", bad, in.Op)
	}
	e := newExec(isa.RV32I, bad)
	stepTwiceAt0(e, func(pass int) {
		if e.CPU.Mtval != bad {
			t.Errorf("pass %d: mtval = %#x, want %#x", pass, e.CPU.Mtval, uint32(bad))
		}
	})
}

// TestNestedTrap: a fault inside the handler itself re-enters the
// handler, overwriting mepc/mcause with the nested values — the hart has
// no interrupt stack, so this is the architected behaviour the trap
// template's handler is written to never provoke.
func TestNestedTrap(t *testing.T) {
	const bad = 0xfe00f0ff
	m := mem.New(0, 0x8000)
	if err := m.Write32(0, bad); err != nil { // body: illegal at 0
		t.Fatal(err)
	}
	if err := m.Write32(testHandler, bad); err != nil { // handler: also illegal
		t.Fatal(err)
	}
	cpu := hart.New(isa.RV32I)
	cpu.Mtvec = testHandler
	e := New(cpu, m, isa.Ref)
	e.HaltAddr = testHaltAddr

	e.Step() // first trap: body fault
	if cpu.Mepc != 0 || cpu.PC != testHandler {
		t.Fatalf("first trap: mepc=%#x pc=%#x", cpu.Mepc, cpu.PC)
	}
	e.Step() // nested trap: handler fault
	if cpu.Mepc != testHandler {
		t.Errorf("nested trap mepc = %#x, want handler address %#x", cpu.Mepc, uint32(testHandler))
	}
	if cpu.PC != testHandler {
		t.Errorf("nested trap must re-enter the handler: pc = %#x", cpu.PC)
	}
	if e.TrapCount != 2 {
		t.Errorf("TrapCount = %d, want 2", e.TrapCount)
	}
	// Without a halting handler the nested fault loops forever; Run must
	// fence it with the instruction limit.
	if err := e.Run(100); err != ErrTimeout {
		t.Errorf("Run = %v, want ErrTimeout", err)
	}
}
