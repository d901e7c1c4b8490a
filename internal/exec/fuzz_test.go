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

// The differential harness runs the same bytestream on a fresh executor
// and on one whose decode memo a second stream has warmed, and demands
// indistinguishable behaviour: identical hart state, trap causes, memory
// contents, coverage edge sequences and decoder panics. The selector byte
// picks the ISA configuration and the decoder/executor quirk set, so
// quirk-dependent decodes (loose masks, reserved RVC, crash patterns) are
// diffed too.

var fuzzCfgs = []isa.Config{isa.RV32I, isa.RV32IM, isa.RV32IMC, isa.RV32GC}

var fuzzQuirks = []isa.Quirks{
	{}, // reference decoder
	{LooseEcallMask: true, AllowReservedC: true, LooseFunct7: true,
		InvalidBranchFunct3: true, CrashOnPattern: true, CustomAsNOP: true},
	{CrashOnPattern: true},
}

// diffTrace records the per-instruction observation sequence: what the
// coverage hook saw, in order. Any cold/warm divergence in dispatch,
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

// diffMachine is the hart and memory a differential run starts from: bs
// at address 0 and the trap handler of newExec.
func diffMachine(bs []byte, cfg isa.Config) (*hart.Hart, *mem.Memory) {
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
	cpu := hart.New(cfg)
	cpu.Mtvec = testHandler
	return cpu, m
}

// runDiffSteps steps e within the differential's budget and reports a
// decoder panic.
func runDiffSteps(e *Executor) (panicked bool, msg string) {
	defer func() {
		if r := recover(); r != nil {
			panicked, msg = true, fmt.Sprint(r)
		}
	}()
	for i := 0; i < 3000 && !e.Halted; i++ {
		e.Step()
	}
	return false, ""
}

// runDiff executes bs from address 0, bounded by a step budget, and
// captures everything observable; cov, when non-nil, observes the run
// alongside the trace. With warm non-nil, the executor first runs warm
// on a machine of its own, then gets the pristine hart and memory of bs
// back and keeps only its memo.
func runDiff(bs, warm []byte, cfg isa.Config, q isa.Quirks, xq Quirks, cov Hook) diffResult {
	cpu, m := diffMachine(bs, cfg)
	e := New(cpu, m, &isa.Decoder{Quirks: q})
	e.HaltAddr = testHaltAddr
	e.Quirks = xq
	if warm != nil {
		e.CPU, e.Mem = diffMachine(warm, cfg)
		runDiffSteps(e)
		e.CPU, e.Mem = cpu, m
		e.Halted, e.InstCount, e.TrapCount = false, 0, 0
	}
	tr := &diffTrace{next: cov}
	e.Hook = tr
	res := diffResult{trace: tr}
	res.panicked, res.panicMsg = runDiffSteps(e)
	res.cpu = *cpu
	res.halted = e.Halted
	res.insts = e.InstCount
	res.mem, _ = m.ReadBytes(0, 0x8000)
	return res
}

// warmSeed is the warming stream of every seed: distinct instructions at
// the addresses the seeds execute, so a memo that answered by address
// would run them in place of the seed's own code.
var warmSeed = words(
	enc(isa.Inst{Op: isa.OpADDI, Rd: 7, Rs1: 7, Imm: 77}),
	enc(isa.Inst{Op: isa.OpXOR, Rd: 8, Rs1: 7, Rs2: 1}),
	0x0001_4525, // c.li x10, 9 and c.nop
	enc(isa.Inst{Op: isa.OpLUI, Rd: 9, Imm: 0x5000}),
	enc(isa.Inst{Op: isa.OpADDI, Rd: 11, Imm: -1}),
	0xffffffff,
)

// words lays 32-bit words out little-endian.
func words(ws ...uint32) []byte {
	var buf bytes.Buffer
	for _, w := range ws {
		buf.Write([]byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)})
	}
	return buf.Bytes()
}

func diffSeeds(f *testing.F) {
	add := func(sel uint8, ws ...uint32) { f.Add(sel, words(ws...), warmSeed) }
	f.Add(uint8(3), []byte(nil), warmSeed)
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
	f.Add(uint8(2+1*4), []byte{0x01, 0x00, 0x02, 0x40, 0x01, 0x00}, warmSeed)
	// Decoder crash patterns: 16-bit (h&0xe403==0x8400) and 32-bit.
	f.Add(uint8(3+1*4), []byte{0x00, 0x84}, warmSeed)
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

// memoDiff runs bs on a fresh executor and on one whose memo warm has
// warmed, and fails t on any observable divergence. coldCov and warmCov,
// when non-nil, observe the two runs alongside the trace. The fuzz target
// lives in the external test package (fuzz_cov_test.go), which can attach
// coverage collectors: package coverage imports exec.
func memoDiff(t *testing.T, sel uint8, bs, warm []byte, coldCov, warmCov Hook) {
	cfg := fuzzCfgs[int(sel)&3]
	q := fuzzQuirks[(int(sel)>>2)%len(fuzzQuirks)]
	var xq Quirks
	if sel&0x20 != 0 {
		xq = Quirks{LinkBeforeAlignCheck: true, SCIgnoresReservation: true, EcallMarksCompletion: true}
	}
	cold := runDiff(bs, nil, cfg, q, xq, coldCov)
	warmed := runDiff(bs, warm, cfg, q, xq, warmCov)
	if cold.panicked != warmed.panicked || cold.panicMsg != warmed.panicMsg {
		t.Fatalf("panic diverged on %x: cold (%v, %q) warmed (%v, %q)",
			bs, cold.panicked, cold.panicMsg, warmed.panicked, warmed.panicMsg)
	}
	if cold.cpu != warmed.cpu {
		t.Fatalf("hart state diverged on %x:\ncold pc=%#x mcause=%#x mtval=%#x\nwarmed pc=%#x mcause=%#x mtval=%#x",
			bs, cold.cpu.PC, cold.cpu.Mcause, cold.cpu.Mtval,
			warmed.cpu.PC, warmed.cpu.Mcause, warmed.cpu.Mtval)
	}
	if cold.halted != warmed.halted || cold.insts != warmed.insts {
		t.Fatalf("termination diverged on %x: cold (halted=%v, n=%d) warmed (halted=%v, n=%d)",
			bs, cold.halted, cold.insts, warmed.halted, warmed.insts)
	}
	if !bytes.Equal(cold.mem, warmed.mem) {
		t.Fatalf("memory diverged on %x", bs)
	}
	if !slices.Equal(cold.trace.edges, warmed.trace.edges) {
		t.Fatalf("coverage edges diverged on %x:\ncold %v\nwarmed %v", bs, cold.trace.edges, warmed.trace.edges)
	}
	if !slices.Equal(cold.trace.events, warmed.trace.events) {
		t.Fatalf("hook events diverged on %x", bs)
	}
}
