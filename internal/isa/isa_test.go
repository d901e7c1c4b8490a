package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDecodeKnownEncodings(t *testing.T) {
	cases := []struct {
		word uint32
		want Inst
	}{
		{0x00310093, Inst{Op: OpADDI, Rd: 1, Rs1: 2, Imm: 3}},
		{0x005201b3, Inst{Op: OpADD, Rd: 3, Rs1: 4, Rs2: 5}},
		{0x40520233, Inst{Op: OpSUB, Rd: 4, Rs1: 4, Rs2: 5}},
		{0xffc3a303, Inst{Op: OpLW, Rd: 6, Rs1: 7, Imm: -4}},
		{0x0062a823, Inst{Op: OpSW, Rs1: 5, Rs2: 6, Imm: 16}},
		{0x00000073, Inst{Op: OpECALL}},
		{0x00100073, Inst{Op: OpEBREAK}},
		{0x30200073, Inst{Op: OpMRET}},
		{0x10500073, Inst{Op: OpWFI}},
		{0x00000037, Inst{Op: OpLUI, Rd: 0, Imm: 0}},
		{0xfffff5b7, Inst{Op: OpLUI, Rd: 11, Imm: int32(0xfffff000 - 1<<32)}},
		{0x02c58533, Inst{Op: OpMUL, Rd: 10, Rs1: 11, Rs2: 12}},
		{0x1005272f, Inst{Op: OpLRW, Rd: 14, Rs1: 10}},
		{0x18e5272f, Inst{Op: OpSCW, Rd: 14, Rs1: 10, Rs2: 14}},
		{0x00a5f533, Inst{Op: OpAND, Rd: 10, Rs1: 11, Rs2: 10}},
		{0x0000100f, Inst{Op: OpFENCEI}},
		{0x34029073, Inst{Op: OpCSRRW, Rd: 0, Rs1: 5, CSR: 0x340}},
		{0x00b57553, Inst{Op: OpFADDS, Rd: 10, Rs1: 10, Rs2: 11, RM: 7}},
		{0x5a00f0d3, Inst{Op: OpFSQRTD, Rd: 1, Rs1: 1, RM: 7}},
	}
	for _, c := range cases {
		got := Ref.Decode32(c.word)
		c.want.Raw = c.word
		c.want.Size = 4
		if got != c.want {
			t.Errorf("Decode32(%#08x) = %+v, want %+v", c.word, got, c.want)
		}
	}
}

func TestDecodeIllegal32(t *testing.T) {
	for _, w := range []uint32{
		0xffffffff,          // all ones
		0x00000013 | 0x7<<2, // major opcode with bits[4:2]=111 (>32-bit prefix)
		0x0000707f,          // unused major opcode pattern
		0x0000005b,          // custom-2/reserved major opcode (not a quirk target)
		0x00002063,          // BEQ funct3=2: invalid branch funct3
		0x00003063,          // funct3=3
		0x02001013,          // SLLI with funct7 bit 25 set (RV64 shamt)
		0x00400073,          // SYSTEM funct3=0, imm=4 (no such instruction)
		0x00000173,          // "ECALL" with rd=2: must be illegal on reference
		0x000a0073,          // "ECALL" with rs1=20: must be illegal
		0x0000000b,          // custom-0 opcode
		0x0000402b,          // custom-1 opcode funct3=4 (quirk target; illegal here)
	} {
		if got := Ref.Decode32(w); got.Op != OpIllegal {
			t.Errorf("Decode32(%#08x) = %v, want illegal", w, got.Op)
		}
	}
}

// TestMaskMatchUniqueness randomizes the free bits of every table entry and
// checks the decoder returns exactly that entry's operation.
func TestMaskMatchUniqueness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, in := range Instructions {
		for trial := 0; trial < 64; trial++ {
			w := (rng.Uint32() &^ in.Mask) | in.Match
			got := Ref.Decode32(w)
			if got.Op != in.Op {
				t.Fatalf("%s: randomized word %#08x decoded as %v", in.Name, w, got.Op)
			}
		}
	}
}

// TestEncodeDecodeRoundtrip generates random valid instructions per format
// and checks decode(encode(inst)) recovers all operand fields.
func TestEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	reg := func() Reg { return Reg(rng.Intn(32)) }
	for _, in := range Instructions {
		for trial := 0; trial < 32; trial++ {
			inst := Inst{Op: in.Op}
			switch in.Fmt {
			case FmtR:
				inst.Rd, inst.Rs1, inst.Rs2 = reg(), reg(), reg()
				if in.Op == OpSFENCEVMA {
					inst.Rd = 0
				}
			case FmtR4:
				inst.Rd, inst.Rs1, inst.Rs2, inst.Rs3 = reg(), reg(), reg(), reg()
				inst.RM = uint8(rng.Intn(8))
			case FmtRrm:
				inst.Rd, inst.Rs1, inst.Rs2 = reg(), reg(), reg()
				inst.RM = uint8(rng.Intn(8))
			case FmtR2rm:
				inst.Rd, inst.Rs1 = reg(), reg()
				inst.RM = uint8(rng.Intn(8))
			case FmtR2:
				inst.Rd, inst.Rs1 = reg(), reg()
			case FmtI:
				inst.Rd, inst.Rs1 = reg(), reg()
				inst.Imm = int32(rng.Intn(4096) - 2048)
			case FmtIShift:
				inst.Rd, inst.Rs1 = reg(), reg()
				inst.Imm = int32(rng.Intn(32))
			case FmtS:
				inst.Rs1, inst.Rs2 = reg(), reg()
				inst.Imm = int32(rng.Intn(4096) - 2048)
			case FmtB:
				inst.Rs1, inst.Rs2 = reg(), reg()
				inst.Imm = int32(rng.Intn(8192)-4096) &^ 1
			case FmtU:
				inst.Rd = reg()
				inst.Imm = int32(rng.Uint32() & 0xfffff000)
			case FmtJ:
				inst.Rd = reg()
				inst.Imm = int32(rng.Intn(1<<21)-1<<20) &^ 1
			case FmtCSR:
				inst.Rd, inst.Rs1 = reg(), reg()
				inst.CSR = uint16(rng.Intn(4096))
			case FmtCSRI:
				inst.Rd = reg()
				inst.CSR = uint16(rng.Intn(4096))
				inst.Imm = int32(rng.Intn(32))
			case FmtAMO:
				inst.Rd, inst.Rs1, inst.Rs2 = reg(), reg(), reg()
				if in.Op == OpLRW {
					inst.Rs2 = 0
				}
			case FmtNone, FmtFence:
				// nothing
			}
			w, err := Encode(inst)
			if err != nil {
				t.Fatalf("%s: encode %+v: %v", in.Name, inst, err)
			}
			got := Ref.Decode32(w)
			inst.Raw, inst.Size = w, 4
			if got != inst {
				t.Fatalf("%s: roundtrip %+v -> %#08x -> %+v", in.Name, inst, w, got)
			}
		}
	}
}

func TestEncodeRangeErrors(t *testing.T) {
	cases := []Inst{
		{Op: OpADDI, Imm: 2048},
		{Op: OpADDI, Imm: -2049},
		{Op: OpSW, Imm: 4000},
		{Op: OpBEQ, Imm: 3},    // odd branch offset
		{Op: OpBEQ, Imm: 4096}, // out of range
		{Op: OpJAL, Imm: 1 << 20},
		{Op: OpLUI, Imm: 4}, // low bits set
		{Op: OpSLLI, Imm: 32},
		{Op: OpCSRRWI, Imm: 32},
	}
	for _, c := range cases {
		if _, err := Encode(c); err == nil {
			t.Errorf("Encode(%v imm=%d): want error", c.Op, c.Imm)
		}
	}
	if _, err := Encode(Inst{Op: OpIllegal}); err == nil {
		t.Error("Encode(illegal): want error")
	}
}

func TestDecodeCompressedKnown(t *testing.T) {
	cases := []struct {
		half uint16
		cop  COp
		want Inst
	}{
		{0x157d, CADDI, Inst{Op: OpADDI, Rd: 10, Rs1: 10, Imm: -1}},
		{0x0001, CNOP, Inst{Op: OpADDI}},
		{0x4292, CLWSP, Inst{Op: OpLW, Rd: 5, Rs1: RegSP, Imm: 4}},
		{0x8082, CJR, Inst{Op: OpJALR, Rd: 0, Rs1: RegRA}}, // ret
		{0x9002, CEBREAK, Inst{Op: OpEBREAK}},
		{0x852e, CMV, Inst{Op: OpADD, Rd: 10, Rs1: 0, Rs2: 11}},
		{0x962a, CADD, Inst{Op: OpADD, Rd: 12, Rs1: 12, Rs2: 10}},
		{0x4601, CLI, Inst{Op: OpADDI, Rd: 12, Rs1: 0, Imm: 0}},
		{0x8d89, CSUB, Inst{Op: OpSUB, Rd: 11, Rs1: 11, Rs2: 10}},
		{0xc298, CSW, Inst{Op: OpSW, Rs1: 13, Rs2: 14, Imm: 0}},
		{0x4398, CLW, Inst{Op: OpLW, Rd: 14, Rs1: 15, Imm: 0}},
	}
	for _, c := range cases {
		got := Ref.DecodeC(c.half)
		c.want.Raw, c.want.Size, c.want.COp = uint32(c.half), 2, c.cop
		if got != c.want {
			t.Errorf("DecodeC(%#04x) = %+v, want %+v", c.half, got, c.want)
		}
	}
}

func TestCompressedReservedAndHints(t *testing.T) {
	// c.lwsp x0, 0(sp): reserved non-hint (the paper's VP bug case).
	const clwspX0 = 0x4002
	if inst, kind := decodeC(clwspX0); kind != CReserved || inst.Op != OpLW || inst.Rd != 0 {
		t.Errorf("c.lwsp x0: classify = (%v, %v)", inst, kind)
	}
	if got := Ref.DecodeC(clwspX0); got.Op != OpIllegal {
		t.Errorf("reference DecodeC(c.lwsp x0) = %v, want illegal", got.Op)
	}
	buggy := &Decoder{Quirks: Quirks{AllowReservedC: true}}
	if got := buggy.DecodeC(clwspX0); got.Op != OpLW || got.Rd != 0 {
		t.Errorf("buggy DecodeC(c.lwsp x0) = %v rd=%v, want lw x0", got.Op, got.Rd)
	}

	// The all-zero encoding is defined illegal, even for buggy decoders.
	if got := buggy.DecodeC(0); got.Op != OpIllegal {
		t.Errorf("DecodeC(0) = %v, want illegal", got.Op)
	}
	// Quadrant-0 funct3=100 is wholly reserved with no expansion.
	if got := buggy.DecodeC(0x8000); got.Op != OpIllegal {
		t.Errorf("DecodeC(0x8000) = %v, want illegal", got.Op)
	}
	// c.jr with rs1=0 is reserved.
	if _, kind := decodeC(0x8002); kind != CReserved {
		t.Errorf("c.jr x0: kind = %v, want reserved", kind)
	}
	// c.addi16sp with nzimm=0 is reserved.
	if _, kind := decodeC(0x6101); kind != CReserved {
		t.Errorf("c.addi16sp 0: kind = %v, want reserved", kind)
	}
	// c.lui with rd!=0, imm=0 is reserved.
	if _, kind := decodeC(0x6281); kind != CReserved {
		t.Errorf("c.lui x5, 0: kind = %v, want reserved", kind)
	}
	// c.li x0 is a hint and must execute (as a no-op).
	if inst, kind := decodeC(0x4005); kind != CHint || inst.Rd != 0 {
		t.Errorf("c.li x0: classify = (%v, %v), want hint", inst, kind)
	}
	if got := Ref.DecodeC(0x4005); got.Op != OpADDI {
		t.Errorf("reference DecodeC(c.li x0) = %v, want addi (hint nop)", got.Op)
	}
	// c.slli with shamt[5] set is reserved on RV32.
	if _, kind := decodeC(0x1282); kind != CReserved {
		t.Errorf("c.slli shamt>=32: kind = %v, want reserved", kind)
	}
}

func TestDecodeCNeverPanicsReference(t *testing.T) {
	f := func(h uint16) bool {
		inst := Ref.DecodeC(h)
		return inst.Size == 2 && inst.Raw == uint32(h)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeDispatchesOnLowBits(t *testing.T) {
	// Low bits 11 -> 32-bit decode; otherwise compressed.
	if got := Ref.Decode(0x00000013); got.Size != 4 || got.Op != OpADDI {
		t.Errorf("Decode(addi word) = %+v", got)
	}
	if got := Ref.Decode(0xffff0001); got.Size != 2 {
		t.Errorf("Decode(compressed) size = %d, want 2", got.Size)
	}
}

func TestQuirkLooseEcallMask(t *testing.T) {
	vp := &Decoder{Quirks: Quirks{LooseEcallMask: true}}
	w := uint32(0x00000073) | 5<<7 | 9<<15 // "ecall" with rd=5, rs1=9
	if got := Ref.Decode32(w); got.Op != OpIllegal {
		t.Fatalf("reference: %v, want illegal", got.Op)
	}
	if got := vp.Decode32(w); got.Op != OpECALL {
		t.Fatalf("vp quirk: %v, want ecall", got.Op)
	}
	// A real ECALL stays an ECALL on both.
	if got := vp.Decode32(0x73); got.Op != OpECALL {
		t.Fatalf("vp quirk real ecall: %v", got.Op)
	}
	// funct3 != 0 must stay illegal even with the quirk.
	if got := vp.Decode32(0x00004073); got.Op != OpIllegal {
		t.Fatalf("vp quirk funct3!=0: %v, want illegal", got.Op)
	}
}

func TestQuirkLooseFunct7(t *testing.T) {
	sail := &Decoder{Quirks: Quirks{LooseFunct7: true}}
	// ADD with a garbage funct7 (0x13): invalid, but the quirky decoder
	// accepts it as ADD (bit 30 clear).
	w := uint32(0x00000033) | 0x13<<25 | 1<<7 | 2<<15 | 3<<20
	if got := Ref.Decode32(w); got.Op != OpIllegal {
		t.Fatalf("reference: %v, want illegal", got.Op)
	}
	if got := sail.Decode32(w); got.Op != OpADD || got.Rd != 1 {
		t.Fatalf("sail quirk: %v, want add x1", got.Op)
	}
	// With bit 30 set it maps to SUB.
	w |= 1 << 30
	if got := sail.Decode32(w); got.Op != OpSUB {
		t.Fatalf("sail quirk bit30: %v, want sub", got.Op)
	}
	// Valid M instructions still decode exactly on the quirky decoder.
	if got := sail.Decode32(0x02c58533); got.Op != OpMUL {
		t.Fatalf("sail quirk mul: %v, want mul", got.Op)
	}
	// SLLI with an RV64 shamt bit decodes as SLLI under the quirk.
	if got := sail.Decode32(0x02051513); got.Op != OpSLLI {
		t.Fatalf("sail quirk slli: %v, want slli", got.Op)
	}
}

func TestQuirkInvalidBranchFunct3(t *testing.T) {
	sail := &Decoder{Quirks: Quirks{InvalidBranchFunct3: true}}
	// Branch funct3=2 with a negative offset: decodes as backward BEQ.
	inst := Inst{Op: OpBEQ, Rs1: 0, Rs2: 0, Imm: -8}
	w, err := Encode(inst)
	if err != nil {
		t.Fatal(err)
	}
	w = (w &^ (7 << 12)) | 2<<12
	if got := Ref.Decode32(w); got.Op != OpIllegal {
		t.Fatalf("reference: %v, want illegal", got.Op)
	}
	got := sail.Decode32(w)
	if got.Op != OpBEQ || got.Imm != -8 {
		t.Fatalf("sail quirk: %v imm=%d, want beq -8", got.Op, got.Imm)
	}
}

func TestQuirkCustomAsNOP(t *testing.T) {
	ovp := &Decoder{Quirks: Quirks{CustomAsNOP: true}}
	for _, opc := range []uint32{0x0b, 0x2b} {
		w := opc | 4<<12 | 0xdead<<16
		if got := Ref.Decode32(w); got.Op != OpIllegal {
			t.Fatalf("reference custom opcode %#x: %v, want illegal", opc, got.Op)
		}
		if got := ovp.Decode32(w); got.Op != OpCustomNOP {
			t.Fatalf("ovpsim custom opcode %#x: %v, want custom nop", opc, got.Op)
		}
		// Without the special funct3 pattern the word stays illegal.
		w2 := opc | 2<<12
		if got := ovp.Decode32(w2); got.Op != OpIllegal {
			t.Fatalf("ovpsim custom opcode %#x funct3=2: %v, want illegal", opc, got.Op)
		}
	}
}

func TestQuirkCrashOnPattern(t *testing.T) {
	sail := &Decoder{Quirks: Quirks{CrashOnPattern: true}}
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("compressed", func() { sail.DecodeC(sailCrashPattern) })
	expectPanic("32-bit", func() { sail.Decode32(sailCrashPattern32 | 0xdea00000) })
	// The reference decoder survives both.
	if got := Ref.DecodeC(sailCrashPattern); got.Op != OpIllegal {
		t.Errorf("reference compressed crash pattern: %v", got.Op)
	}
	if got := Ref.Decode32(sailCrashPattern32); got.Op != OpIllegal {
		t.Errorf("reference 32-bit crash pattern: %v", got.Op)
	}
	// Valid instructions still decode on the quirky decoder.
	if got := sail.Decode32(0x00310093); got.Op != OpADDI {
		t.Errorf("sail valid decode: %v", got.Op)
	}
}

func TestConfigParse(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Config
	}{
		{"RV32I", RV32I},
		{"rv32imc", RV32IMC},
		{"RV32GC", RV32GC},
		{"RV32IMAFDC", RV32GC},
		{"RV32IM", RV32IM},
	} {
		got, err := ParseConfig(c.in)
		if err != nil {
			t.Fatalf("ParseConfig(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseConfig(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	// D implies F in the parser (matching GCC -march behaviour).
	if got, err := ParseConfig("RV32ID"); err != nil || !got.Has(ExtF|ExtD) {
		t.Errorf("ParseConfig(RV32ID) = %v, %v; want F implied", got, err)
	}
	for _, bad := range []string{"RV64I", "RV32", "RV32X", "RV32E"} {
		if _, err := ParseConfig(bad); err == nil {
			t.Errorf("ParseConfig(%q): want error", bad)
		}
	}
	if RV32GC.String() != "RV32GC" || RV32IMC.String() != "RV32IMC" || RV32I.String() != "RV32I" {
		t.Errorf("config String: %s %s %s", RV32GC, RV32IMC, RV32I)
	}
	if !RV32I.Sub(RV32IMC) || !RV32IMC.Sub(RV32GC) || RV32GC.Sub(RV32IMC) {
		t.Error("Sub relation wrong")
	}
}

func TestConfigMISA(t *testing.T) {
	v := RV32IMC.MISA()
	if v>>30 != 1 {
		t.Errorf("MISA MXL = %d", v>>30)
	}
	if v&(1<<8) == 0 || v&(1<<12) == 0 || v&(1<<2) == 0 {
		t.Errorf("MISA missing I/M/C bits: %#x", v)
	}
	if v&(1<<5) != 0 {
		t.Errorf("MISA has F bit for RV32IMC: %#x", v)
	}
}

func TestRegParsing(t *testing.T) {
	for _, c := range []struct {
		in   string
		want Reg
	}{{"x0", 0}, {"zero", 0}, {"ra", 1}, {"sp", 2}, {"x31", 31}, {"t6", 31}, {"fp", 8}, {"s0", 8}, {"a0", 10}} {
		got, ok := ParseReg(c.in)
		if !ok || got != c.want {
			t.Errorf("ParseReg(%q) = %v,%v want %v", c.in, got, ok, c.want)
		}
	}
	for _, bad := range []string{"x32", "x", "q7", "", "f0"} {
		if _, ok := ParseReg(bad); ok {
			t.Errorf("ParseReg(%q): want failure", bad)
		}
	}
	for _, c := range []struct {
		in   string
		want Reg
	}{{"f0", 0}, {"ft0", 0}, {"fa0", 10}, {"f31", 31}, {"ft11", 31}} {
		got, ok := ParseFReg(c.in)
		if !ok || got != c.want {
			t.Errorf("ParseFReg(%q) = %v,%v want %v", c.in, got, ok, c.want)
		}
	}
}

func TestDisasmSmoke(t *testing.T) {
	cases := []struct {
		word uint32
		want string
	}{
		{0x00310093, "addi ra, sp, 3"},
		{0x005201b3, "add gp, tp, t0"},
		{0xffc3a303, "lw t1, -4(t2)"},
		{0x00000073, "ecall"},
		{0x34029073, "csrrw zero, mscratch, t0"},
	}
	for _, c := range cases {
		if got := Disasm(Ref.Decode32(c.word)); got != c.want {
			t.Errorf("Disasm(%#08x) = %q, want %q", c.word, got, c.want)
		}
	}
	// Compressed shows expansion with the c-mnemonic.
	got := Disasm(Ref.DecodeC(0x157d))
	if got != "c.addi {addi a0, a0, -1}" {
		t.Errorf("compressed disasm = %q", got)
	}
	// Illegal words render as data.
	if got := Disasm(Ref.Decode32(0xffffffff)); got == "" {
		t.Error("illegal disasm empty")
	}
}

func TestOpMetadata(t *testing.T) {
	if !OpJALR.Flags().Is(FlagForbidden) {
		t.Error("JALR must be forbidden")
	}
	for _, op := range []Op{OpCSRRW, OpCSRRS, OpCSRRC, OpCSRRWI, OpCSRRSI, OpCSRRCI, OpMRET, OpSRET, OpURET, OpWFI, OpSFENCEVMA, OpEBREAK} {
		if !op.Flags().Is(FlagForbidden) {
			t.Errorf("%v must be forbidden", op)
		}
	}
	if OpECALL.Flags().Is(FlagForbidden) {
		t.Error("ECALL must not be forbidden (it traps deterministically)")
	}
	if OpLW.Info().MemSize != 4 || OpLB.Info().MemSize != 1 || OpFLD.Info().MemSize != 8 {
		t.Error("memory sizes wrong")
	}
	if OpIllegal.Info() != nil {
		t.Error("OpIllegal must have no info")
	}
	if OpADD.String() != "add" || OpIllegal.String() != "illegal" {
		t.Error("op names wrong")
	}
	if LookupName("add").Op != OpADD || LookupName("nosuch") != nil {
		t.Error("LookupName wrong")
	}
}

// TestDecodeCExhaustive sweeps all 65536 compressed encodings, checking
// the decoder is total, consistent with decodeC, and that the quirky
// (reserved-accepting) decoder accepts a strict superset.
func TestDecodeCExhaustive(t *testing.T) {
	buggy := &Decoder{Quirks: Quirks{AllowReservedC: true}}
	counts := map[CKind]int{}
	for h := 0; h <= 0xffff; h++ {
		half := uint16(h)
		inst, kind := decodeC(half)
		counts[kind]++
		ref := Ref.DecodeC(half)
		bug := buggy.DecodeC(half)
		switch kind {
		case CValid, CHint:
			if ref != inst || bug != inst {
				t.Fatalf("%#04x (%v): decode mismatch", half, kind)
			}
			if inst.Op.Info() == nil {
				t.Fatalf("%#04x: %v expansion is illegal", half, kind)
			}
		case CReserved:
			if ref.Op != OpIllegal {
				t.Fatalf("%#04x: reserved must be illegal on reference", half)
			}
			if bug != inst || inst.Op.Info() == nil {
				t.Fatalf("%#04x: buggy decoder must expand reserved to %v", half, inst.Op)
			}
		case CIllegal:
			if ref.Op != OpIllegal || bug.Op != OpIllegal {
				t.Fatalf("%#04x: wholly illegal encoding decoded", half)
			}
		}
		if ref.Size != 2 || ref.Raw != uint32(half) {
			t.Fatalf("%#04x: size/raw wrong", half)
		}
	}
	// Sanity on the classification census: the RVC space is mostly valid,
	// with nonzero hint/reserved/illegal populations.
	for kind, want := range map[CKind]int{CValid: 10000, CHint: 100, CReserved: 100, CIllegal: 100} {
		if counts[kind] < want {
			t.Errorf("kind %v: %d encodings, expected at least %d", kind, counts[kind], want)
		}
	}
	t.Logf("RVC census: valid=%d hint=%d reserved=%d illegal=%d",
		counts[CValid], counts[CHint], counts[CReserved], counts[CIllegal])
}

// TestCompressedGoldenEncodings pins additional well-known RVC encodings
// (values as produced by the GNU assembler).
func TestCompressedGoldenEncodings(t *testing.T) {
	cases := []struct {
		half uint16
		want string // expansion disassembly
	}{
		{0x1141, "c.addi {addi sp, sp, -16}"},
		{0x4081, "c.li {addi ra, zero, 0}"},
		{0x02a2, "c.slli {slli t0, t0, 8}"},
		{0x8082, "c.jr {jalr zero, ra, 0}"},
		{0xc022, "c.swsp {sw s0, 0(sp)}"},
		{0x50fd, "c.li {addi ra, zero, -1}"},
		{0x8391, "c.srli {srli a5, a5, 4}"},
		{0x8915, "c.andi {andi a0, a0, 5}"},
		{0xc05c, "c.sw {sw a5, 4(s0)}"},
		{0x6405, "c.lui {lui s0, 0x1}"},
		{0x2001, "c.jal {jal ra, . +0}"},
	}
	for _, c := range cases {
		got := Disasm(Ref.DecodeC(c.half))
		if got != c.want {
			t.Errorf("DecodeC(%#04x) = %q, want %q", c.half, got, c.want)
		}
	}
}

// TestCompressRoundtrip: every compressed encoding Compress produces must
// decode back to the exact source instruction (same operation, operands
// and immediate) as a valid (non-hint, non-reserved) RVC form.
func TestCompressRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	produced := 0
	for trial := 0; trial < 200000; trial++ {
		// Build candidate instructions biased towards compressible shapes.
		var inst Inst
		switch rng.Intn(10) {
		case 0:
			inst = Inst{Op: OpADDI, Rd: Reg(rng.Intn(32)), Rs1: Reg(rng.Intn(32)), Imm: int32(rng.Intn(128) - 64)}
		case 1:
			inst = Inst{Op: OpADDI, Rd: Reg(rng.Intn(32)), Rs1: 0, Imm: int32(rng.Intn(128) - 64)}
		case 2:
			inst = Inst{Op: OpLUI, Rd: Reg(rng.Intn(32)), Imm: int32(rng.Intn(128)-64) << 12}
		case 3:
			inst = Inst{Op: []Op{OpADD, OpSUB, OpXOR, OpOR, OpAND}[rng.Intn(5)],
				Rd: Reg(rng.Intn(32)), Rs1: Reg(rng.Intn(32)), Rs2: Reg(rng.Intn(32))}
			if rng.Intn(2) == 0 {
				inst.Rs1 = inst.Rd
			}
		case 4:
			inst = Inst{Op: []Op{OpSLLI, OpSRLI, OpSRAI}[rng.Intn(3)],
				Rd: Reg(rng.Intn(32)), Imm: int32(rng.Intn(32))}
			inst.Rs1 = inst.Rd
		case 5:
			inst = Inst{Op: OpLW, Rd: Reg(rng.Intn(32)), Rs1: Reg(rng.Intn(32)), Imm: int32(rng.Intn(64) * 4)}
		case 6:
			inst = Inst{Op: OpSW, Rs1: Reg(rng.Intn(32)), Rs2: Reg(rng.Intn(32)), Imm: int32(rng.Intn(64) * 4)}
		case 7:
			inst = Inst{Op: OpJAL, Rd: Reg(rng.Intn(2)), Imm: int32(rng.Intn(1024)-512) &^ 1}
		case 8:
			inst = Inst{Op: []Op{OpBEQ, OpBNE}[rng.Intn(2)], Rs1: Reg(8 + rng.Intn(8)), Imm: int32(rng.Intn(256)-128) &^ 1}
		default:
			inst = Inst{Op: OpANDI, Rd: Reg(8 + rng.Intn(8)), Imm: int32(rng.Intn(64) - 32)}
			inst.Rs1 = inst.Rd
		}
		h, ok := Compress(inst)
		if !ok {
			continue
		}
		produced++
		exp, kind := decodeC(h)
		if kind != CValid {
			t.Fatalf("Compress(%+v) = %#04x classifies as %v", inst, h, kind)
		}
		if exp.Op != inst.Op || exp.Rd != inst.Rd || exp.Rs1 != inst.Rs1 ||
			exp.Rs2 != inst.Rs2 || exp.Imm != inst.Imm {
			t.Fatalf("Compress(%+v) = %#04x decodes to %+v", inst, h, exp)
		}
	}
	if produced < 40000 {
		t.Fatalf("only %d compressible candidates produced; generator too weak", produced)
	}
	t.Logf("verified %d compress/decode roundtrips", produced)
}

// TestCompressKnown pins a handful of well-known compressions.
func TestCompressKnown(t *testing.T) {
	cases := []struct {
		inst Inst
		want uint16
	}{
		{Inst{Op: OpADDI, Rd: 10, Rs1: 10, Imm: -1}, 0x157d},
		{Inst{Op: OpADDI}, 0x0001},
		{Inst{Op: OpLW, Rd: 5, Rs1: RegSP, Imm: 4}, 0x4292},
		{Inst{Op: OpADD, Rd: 10, Rs1: 0, Rs2: 11}, 0x852e},
		{Inst{Op: OpADD, Rd: 12, Rs1: 12, Rs2: 10}, 0x962a},
		{Inst{Op: OpSUB, Rd: 11, Rs1: 11, Rs2: 10}, 0x8d89},
		{Inst{Op: OpSW, Rs1: 13, Rs2: 14, Imm: 0}, 0xc298},
		{Inst{Op: OpSW, Rs1: RegSP, Rs2: 8, Imm: 0}, 0xc022},
		{Inst{Op: OpANDI, Rd: 10, Rs1: 10, Imm: 5}, 0x8915},
		{Inst{Op: OpADDI, Rd: RegSP, Rs1: RegSP, Imm: -16}, 0x1141},
	}
	for _, c := range cases {
		got, ok := Compress(c.inst)
		if !ok || got != c.want {
			t.Errorf("Compress(%+v) = %#04x, %v; want %#04x", c.inst, got, ok, c.want)
		}
	}
	// Non-compressible shapes are refused.
	for _, inst := range []Inst{
		{Op: OpADDI, Rd: 1, Rs1: 2, Imm: 1},   // rd != rs1
		{Op: OpADDI, Rd: 1, Rs1: 1, Imm: 100}, // imm too wide
		{Op: OpLW, Rd: 1, Rs1: 7, Imm: 4},     // base outside x8..x15
		{Op: OpLUI, Rd: RegSP, Imm: 4096},     // c.lui cannot target sp
		{Op: OpJAL, Rd: 5, Imm: 16},           // link register not ra/zero
		{Op: OpBEQ, Rs1: 8, Rs2: 1, Imm: 8},   // rs2 != x0
		{Op: OpMUL, Rd: 8, Rs1: 8, Rs2: 9},    // no RVC form
	} {
		if h, ok := Compress(inst); ok {
			t.Errorf("Compress(%+v) unexpectedly produced %#04x", inst, h)
		}
	}
}
