package exec

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// The differential harness runs the same bytestream through the classical
// decode loop and the predecoded fast path and demands indistinguishable
// behaviour: identical hart state, trap causes, memory contents, coverage
// edge sequences and decoder panics. The selector byte picks the ISA
// configuration and the decoder/executor quirk set, so quirk-dependent
// decodes (loose masks, reserved RVC, crash patterns) are diffed too.

const fuzzCodeSpan = 0x800 // predecoded window [0, fuzzCodeSpan); covers the trap handler

var fuzzCfgs = []isa.Config{isa.RV32I, isa.RV32IM, isa.RV32IMC, isa.RV32GC}

var fuzzQuirks = []isa.Quirks{
	{}, // reference decoder
	{LooseEcallMask: true, AllowReservedC: true, LooseFunct7: true,
		InvalidBranchFunct3: true, CrashOnPattern: true, CustomAsNOP: true},
	{CrashOnPattern: true},
}

// diffTrace records the per-instruction observation sequence: what the
// coverage hook saw, in order. Any fast/slow divergence in dispatch,
// trap-vs-execute decisions or edge IDs shows up here. next, when set,
// observes the same calls (a coverage collector riding along).
type diffTrace struct {
	events []diffEvent
	edges  []uint32
	next   Hook
}

type diffEvent struct {
	pc  uint32
	op  isa.Op
	raw uint32
}

func (tr *diffTrace) OnInst(in *isa.Inst, h *hart.Hart) {
	tr.events = append(tr.events, diffEvent{h.PC, in.Op, in.Raw})
	if tr.next != nil {
		tr.next.OnInst(in, h)
	}
}

func (tr *diffTrace) OnEdge(edge uint32) {
	tr.edges = append(tr.edges, edge)
	if tr.next != nil {
		tr.next.OnEdge(edge)
	}
}

type diffResult struct {
	cpu      hart.Hart
	mem      []byte
	halted   bool
	insts    uint64
	panicked bool
	panicMsg string
	trace    *diffTrace
}

// runDiff executes bs from address 0 with the trap handler of newExec,
// bounded by a step budget, and captures everything observable; cov, when
// non-nil, observes the run alongside the trace.
func runDiff(bs []byte, cfg isa.Config, q isa.Quirks, xq Quirks, pre bool, cov Hook) diffResult {
	m := mem.New(0, 0x8000)
	if len(bs) > 0x600 {
		bs = bs[:0x600]
	}
	if err := m.LoadImage(0, bs); err != nil {
		panic(err)
	}
	if err := m.Write32(testHandler, enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr})); err != nil {
		panic(err)
	}
	dec := &isa.Decoder{Quirks: q}
	cpu := hart.New(cfg)
	cpu.Mtvec = testHandler
	e := New(cpu, m, dec)
	e.HaltAddr = testHaltAddr
	e.Quirks = xq
	if pre {
		code, err := m.ReadBytes(0, fuzzCodeSpan)
		if err != nil {
			panic(err)
		}
		e.Cache = NewDecodeCache(dec.Predecode(0, code), cfg)
	}
	tr := &diffTrace{next: cov}
	e.Hook = tr
	res := diffResult{trace: tr}
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.panicked = true
				res.panicMsg = fmt.Sprint(r)
			}
		}()
		for i := 0; i < 3000 && !e.Halted; i++ {
			e.Step()
		}
	}()
	res.cpu = *cpu
	res.halted = e.Halted
	res.insts = e.InstCount
	res.mem, _ = m.ReadBytes(0, 0x8000)
	return res
}

func diffSeeds(f *testing.F) {
	add := func(sel uint8, words ...uint32) {
		var buf bytes.Buffer
		for _, w := range words {
			buf.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
		}
		f.Add(sel, buf.Bytes())
	}
	f.Add(uint8(3), []byte(nil))
	// Straight-line ALU + halt.
	add(3,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Imm: 5}),
		enc(isa.Inst{Op: isa.OpADD, Rd: 2, Rs1: 1, Rs2: 1}),
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}))
	// Self-modifying: overwrite the next instruction via x30.
	add(3,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 30, Rs1: 0, Imm: 12}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 30, Rs2: 1, Imm: 0}),
		0xffffffff,
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}))
	// Compressed stream with a reserved encoding (quirk-sensitive).
	f.Add(uint8(2+1*4), []byte{0x01, 0x00, 0x02, 0x40, 0x01, 0x00})
	// Decoder crash patterns: 16-bit (h&0xe403==0x8400) and 32-bit.
	f.Add(uint8(3+1*4), []byte{0x00, 0x84})
	add(3+2*4, 0x0000405b)
	// Illegal 32-bit encoding, then FP and M-extension ops (legality
	// ladder differs per configuration).
	add(0, 0xffffffff)
	add(1, enc(isa.Inst{Op: isa.OpMUL, Rd: 3, Rs1: 1, Rs2: 2}))
	add(3,
		enc(isa.Inst{Op: isa.OpFLW, Rd: 1, Rs1: 0, Imm: 0x200}),
		enc(isa.Inst{Op: isa.OpFADDS, Rd: 2, Rs1: 1, Rs2: 1}))
	// Backward branch loop (exhausts the step budget identically).
	add(3, enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 0}))
	// Overlapping streams: branch into the middle of a 32-bit encoding.
	add(2,
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: 6}),
		0x8082ffff)
	// ECALL and EBREAK (trap paths + executor quirks).
	add(3+1*4, enc(isa.Inst{Op: isa.OpECALL}), enc(isa.Inst{Op: isa.OpEBREAK}))
	// CSR traffic.
	add(3, enc(isa.Inst{Op: isa.OpCSRRS, Rd: 1, CSR: 0x300}))
}

// predecodeDiff runs bs through the classical loop and the predecoded
// fast path and fails t on any observable divergence. slowCov and
// fastCov, when non-nil, observe the two runs alongside the trace. The
// fuzz target lives in the external test package (fuzz_cov_test.go),
// which can attach coverage collectors: package coverage imports exec.
func predecodeDiff(t *testing.T, sel uint8, bs []byte, slowCov, fastCov Hook) {
	cfg := fuzzCfgs[int(sel)&3]
	q := fuzzQuirks[(int(sel)>>2)%len(fuzzQuirks)]
	var xq Quirks
	if sel&0x20 != 0 {
		xq = Quirks{LinkBeforeAlignCheck: true, SCIgnoresReservation: true, EcallMarksCompletion: true}
	}
	slow := runDiff(bs, cfg, q, xq, false, slowCov)
	fast := runDiff(bs, cfg, q, xq, true, fastCov)
	if slow.panicked != fast.panicked || slow.panicMsg != fast.panicMsg {
		t.Fatalf("panic diverged on %x: slow (%v, %q) fast (%v, %q)",
			bs, slow.panicked, slow.panicMsg, fast.panicked, fast.panicMsg)
	}
	if slow.cpu != fast.cpu {
		t.Fatalf("hart state diverged on %x:\nslow pc=%#x mcause=%#x mtval=%#x\nfast pc=%#x mcause=%#x mtval=%#x",
			bs, slow.cpu.PC, slow.cpu.Mcause, slow.cpu.Mtval,
			fast.cpu.PC, fast.cpu.Mcause, fast.cpu.Mtval)
	}
	if slow.halted != fast.halted || slow.insts != fast.insts {
		t.Fatalf("termination diverged on %x: slow (halted=%v, n=%d) fast (halted=%v, n=%d)",
			bs, slow.halted, slow.insts, fast.halted, fast.insts)
	}
	if !bytes.Equal(slow.mem, fast.mem) {
		t.Fatalf("memory diverged on %x", bs)
	}
	if !slices.Equal(slow.trace.edges, fast.trace.edges) {
		t.Fatalf("coverage edges diverged on %x:\nslow %v\nfast %v", bs, slow.trace.edges, fast.trace.edges)
	}
	if !slices.Equal(slow.trace.events, fast.trace.events) {
		t.Fatalf("hook events diverged on %x", bs)
	}
}
