package isa

// COp identifies a compressed (RVC) instruction form, used for
// disassembly and coverage bookkeeping; semantics live in the expansion.
type COp uint8

const (
	CNone COp = iota
	CADDI4SPN
	CFLD
	CLW
	CFLW
	CFSD
	CSW
	CFSW
	CNOP
	CADDI
	CJAL
	CLI
	CADDI16SP
	CLUI
	CSRLI
	CSRAI
	CANDI
	CSUB
	CXOR
	COR
	CAND
	CJ
	CBEQZ
	CBNEZ
	CSLLI
	CFLDSP
	CLWSP
	CFLWSP
	CJR
	CMV
	CEBREAK
	CJALR
	CADD
	CFSDSP
	CSWSP
	CFSWSP
	cOpCount
)

var cOpNames = [cOpCount]string{
	"", "c.addi4spn", "c.fld", "c.lw", "c.flw", "c.fsd", "c.sw", "c.fsw",
	"c.nop", "c.addi", "c.jal", "c.li", "c.addi16sp", "c.lui",
	"c.srli", "c.srai", "c.andi", "c.sub", "c.xor", "c.or", "c.and",
	"c.j", "c.beqz", "c.bnez",
	"c.slli", "c.fldsp", "c.lwsp", "c.flwsp", "c.jr", "c.mv", "c.ebreak",
	"c.jalr", "c.add", "c.fsdsp", "c.swsp", "c.fswsp",
}

// String returns the compressed mnemonic ("c.lwsp").
func (c COp) String() string {
	if c < cOpCount {
		return cOpNames[c]
	}
	return "c.unknown"
}

// CKind classifies a 16-bit encoding per the RVC specification's
// reserved/hint taxonomy (the distinction matters for negative testing:
// hints execute as no-ops, reserved non-hint encodings must trap).
type CKind uint8

const (
	// CValid: a regular compressed instruction.
	CValid CKind = iota
	// CHint: encodings the specification defines as hints; they execute as
	// no-ops (the expansion writes x0 or performs an identity update).
	CHint
	// CReserved: reserved non-hint encodings that have a natural expansion
	// a buggy simulator might perform (e.g. c.lwsp with rd == 0); the
	// specification requires an illegal-instruction exception.
	CReserved
	// CIllegal: encodings with no defined expansion at all.
	CIllegal
)

// The modelled sail-riscv decoder crashes on two malformed patterns when
// Quirks.CrashOnPattern is set (the paper: "some inputs crashed
// sail-riscv" on both RV32I and RV32IMC): a compressed quadrant-0
// funct3=100 row with a specific register pattern, and a 32-bit encoding
// in the reserved custom-2 major opcode (1011011) with funct3 bit 2 set.
const (
	sailCrashMask    = 0xe403
	sailCrashPattern = 0x8400

	sailCrashMask32    = 0x0000407f
	sailCrashPattern32 = 0x0000405b
)

// DecodeC decodes a 16-bit compressed encoding, expanding it to its base
// operation. Reserved non-hint encodings decode to OpIllegal unless the
// AllowReservedC quirk is set, in which case they expand "normally" the way
// the buggy simulators in the paper do. Hints decode to their (no-effect)
// expansion, which is legal behaviour.
func (d *Decoder) DecodeC(h uint16) Inst {
	if d.Quirks.CrashOnPattern && h&sailCrashMask == sailCrashPattern {
		panic("sail decoder crash: malformed compressed instruction")
	}
	inst, kind := decodeC(h)
	switch kind {
	case CValid, CHint:
		return inst
	case CReserved:
		if d.Quirks.AllowReservedC {
			return inst
		}
	}
	return Inst{Op: OpIllegal, Raw: uint32(h), Size: 2}
}

// decodeC is the single decode routine for RV32C.
func decodeC(h uint16) (Inst, CKind) {
	w := uint32(h)
	mk := func(c COp, op Op, rd, rs1, rs2 Reg, imm int32) Inst {
		return Inst{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm, Raw: w, Size: 2, COp: c}
	}
	rdP := Reg(bits(w, 4, 2) + 8)  // rd' (bits 4:2, registers x8..x15)
	rs1P := Reg(bits(w, 9, 7) + 8) // rs1' (bits 9:7)
	rdFull := Reg(bits(w, 11, 7))  // full rd/rs1 field
	rs2Full := Reg(bits(w, 6, 2))  // full rs2 field
	funct3 := bits(w, 15, 13)

	switch w & 3 {
	case 0: // quadrant 0
		switch funct3 {
		case 0: // c.addi4spn
			uimm := bits(w, 10, 7)<<6 | bits(w, 12, 11)<<4 | bit(w, 5)<<3 | bit(w, 6)<<2
			if uimm == 0 {
				if w == 0 {
					// The all-zero encoding is defined illegal.
					return Inst{Op: OpIllegal, Raw: w, Size: 2}, CIllegal
				}
				return mk(CADDI4SPN, OpADDI, rdP, RegSP, 0, 0), CReserved
			}
			return mk(CADDI4SPN, OpADDI, rdP, RegSP, 0, int32(uimm)), CValid
		case 1: // c.fld
			uimm := bits(w, 12, 10)<<3 | bits(w, 6, 5)<<6
			return mk(CFLD, OpFLD, rdP, rs1P, 0, int32(uimm)), CValid
		case 2: // c.lw
			uimm := bits(w, 12, 10)<<3 | bit(w, 6)<<2 | bit(w, 5)<<6
			return mk(CLW, OpLW, rdP, rs1P, 0, int32(uimm)), CValid
		case 3: // c.flw (RV32)
			uimm := bits(w, 12, 10)<<3 | bit(w, 6)<<2 | bit(w, 5)<<6
			return mk(CFLW, OpFLW, rdP, rs1P, 0, int32(uimm)), CValid
		case 5: // c.fsd
			uimm := bits(w, 12, 10)<<3 | bits(w, 6, 5)<<6
			return mk(CFSD, OpFSD, 0, rs1P, rdP, int32(uimm)), CValid
		case 6: // c.sw
			uimm := bits(w, 12, 10)<<3 | bit(w, 6)<<2 | bit(w, 5)<<6
			return mk(CSW, OpSW, 0, rs1P, rdP, int32(uimm)), CValid
		case 7: // c.fsw (RV32)
			uimm := bits(w, 12, 10)<<3 | bit(w, 6)<<2 | bit(w, 5)<<6
			return mk(CFSW, OpFSW, 0, rs1P, rdP, int32(uimm)), CValid
		}
		// funct3 == 4 is a wholly reserved row with no expansion.
		return Inst{Op: OpIllegal, Raw: w, Size: 2}, CIllegal

	case 1: // quadrant 1
		switch funct3 {
		case 0: // c.nop / c.addi
			imm := signExtend(bit(w, 12)<<5|bits(w, 6, 2), 6)
			if rdFull == 0 {
				if imm == 0 {
					return mk(CNOP, OpADDI, 0, 0, 0, 0), CValid
				}
				return mk(CADDI, OpADDI, 0, 0, 0, imm), CHint
			}
			if imm == 0 {
				return mk(CADDI, OpADDI, rdFull, rdFull, 0, 0), CHint
			}
			return mk(CADDI, OpADDI, rdFull, rdFull, 0, imm), CValid
		case 1: // c.jal (RV32)
			return mk(CJAL, OpJAL, RegRA, 0, 0, cjImm(w)), CValid
		case 2: // c.li
			imm := signExtend(bit(w, 12)<<5|bits(w, 6, 2), 6)
			if rdFull == 0 {
				return mk(CLI, OpADDI, 0, 0, 0, imm), CHint
			}
			return mk(CLI, OpADDI, rdFull, RegZero, 0, imm), CValid
		case 3:
			if rdFull == RegSP { // c.addi16sp
				imm := signExtend(bit(w, 12)<<9|bit(w, 6)<<4|bit(w, 5)<<6|bits(w, 4, 3)<<7|bit(w, 2)<<5, 10)
				if imm == 0 {
					return mk(CADDI16SP, OpADDI, RegSP, RegSP, 0, 0), CReserved
				}
				return mk(CADDI16SP, OpADDI, RegSP, RegSP, 0, imm), CValid
			}
			// c.lui
			imm := signExtend(bit(w, 12)<<17|bits(w, 6, 2)<<12, 18)
			if imm == 0 {
				return mk(CLUI, OpLUI, rdFull, 0, 0, 0), CReserved
			}
			if rdFull == 0 {
				return mk(CLUI, OpLUI, 0, 0, 0, imm), CHint
			}
			return mk(CLUI, OpLUI, rdFull, 0, 0, imm), CValid
		case 4:
			switch bits(w, 11, 10) {
			case 0, 1: // c.srli / c.srai
				cop, op := CSRLI, OpSRLI
				if bits(w, 11, 10) == 1 {
					cop, op = CSRAI, OpSRAI
				}
				shamt := bit(w, 12)<<5 | bits(w, 6, 2)
				if shamt&0x20 != 0 {
					// shamt[5] != 0 is reserved (NSE) on RV32.
					return mk(cop, op, rs1P, rs1P, 0, int32(shamt&0x1f)), CReserved
				}
				if shamt == 0 {
					return mk(cop, op, rs1P, rs1P, 0, 0), CHint
				}
				return mk(cop, op, rs1P, rs1P, 0, int32(shamt)), CValid
			case 2: // c.andi
				imm := signExtend(bit(w, 12)<<5|bits(w, 6, 2), 6)
				return mk(CANDI, OpANDI, rs1P, rs1P, 0, imm), CValid
			default: // register-register group
				if bit(w, 12) != 0 {
					// Reserved on RV32 (c.subw/c.addw rows of RV64).
					return Inst{Op: OpIllegal, Raw: w, Size: 2}, CIllegal
				}
				rs2 := rdP
				switch bits(w, 6, 5) {
				case 0:
					return mk(CSUB, OpSUB, rs1P, rs1P, rs2, 0), CValid
				case 1:
					return mk(CXOR, OpXOR, rs1P, rs1P, rs2, 0), CValid
				case 2:
					return mk(COR, OpOR, rs1P, rs1P, rs2, 0), CValid
				default:
					return mk(CAND, OpAND, rs1P, rs1P, rs2, 0), CValid
				}
			}
		case 5: // c.j
			return mk(CJ, OpJAL, RegZero, 0, 0, cjImm(w)), CValid
		case 6: // c.beqz
			return mk(CBEQZ, OpBEQ, 0, rs1P, RegZero, cbImm(w)), CValid
		default: // c.bnez
			return mk(CBNEZ, OpBNE, 0, rs1P, RegZero, cbImm(w)), CValid
		}

	case 3:
		// Quadrant 3 is the 32-bit (and wider) encoding space: not a
		// compressed instruction at all. Callers fetch 32 bits for these;
		// a stray halfword is not decodable.
		return Inst{Op: OpIllegal, Raw: w, Size: 2}, CIllegal

	default: // quadrant 2
		switch funct3 {
		case 0: // c.slli
			shamt := bit(w, 12)<<5 | bits(w, 6, 2)
			if shamt&0x20 != 0 {
				return mk(CSLLI, OpSLLI, rdFull, rdFull, 0, int32(shamt&0x1f)), CReserved
			}
			if rdFull == 0 || shamt == 0 {
				return mk(CSLLI, OpSLLI, rdFull, rdFull, 0, int32(shamt)), CHint
			}
			return mk(CSLLI, OpSLLI, rdFull, rdFull, 0, int32(shamt)), CValid
		case 1: // c.fldsp
			uimm := bit(w, 12)<<5 | bits(w, 6, 5)<<3 | bits(w, 4, 2)<<6
			return mk(CFLDSP, OpFLD, rdFull, RegSP, 0, int32(uimm)), CValid
		case 2: // c.lwsp
			uimm := bit(w, 12)<<5 | bits(w, 6, 4)<<2 | bits(w, 3, 2)<<6
			if rdFull == 0 {
				// Reserved non-hint: the exact case of the VP/GRIFT bug
				// discussed in the paper ("c.lwsp x0, 0(sp)").
				return mk(CLWSP, OpLW, 0, RegSP, 0, int32(uimm)), CReserved
			}
			return mk(CLWSP, OpLW, rdFull, RegSP, 0, int32(uimm)), CValid
		case 3: // c.flwsp (RV32)
			uimm := bit(w, 12)<<5 | bits(w, 6, 4)<<2 | bits(w, 3, 2)<<6
			return mk(CFLWSP, OpFLW, rdFull, RegSP, 0, int32(uimm)), CValid
		case 4:
			if bit(w, 12) == 0 {
				if rs2Full == 0 { // c.jr
					if rdFull == 0 {
						return mk(CJR, OpJALR, 0, 0, 0, 0), CReserved
					}
					return mk(CJR, OpJALR, RegZero, rdFull, 0, 0), CValid
				}
				// c.mv
				if rdFull == 0 {
					return mk(CMV, OpADD, 0, RegZero, rs2Full, 0), CHint
				}
				return mk(CMV, OpADD, rdFull, RegZero, rs2Full, 0), CValid
			}
			if rs2Full == 0 {
				if rdFull == 0 { // c.ebreak
					return mk(CEBREAK, OpEBREAK, 0, 0, 0, 0), CValid
				}
				return mk(CJALR, OpJALR, RegRA, rdFull, 0, 0), CValid
			}
			// c.add
			if rdFull == 0 {
				return mk(CADD, OpADD, 0, rdFull, rs2Full, 0), CHint
			}
			return mk(CADD, OpADD, rdFull, rdFull, rs2Full, 0), CValid
		case 5: // c.fsdsp
			uimm := bits(w, 12, 10)<<3 | bits(w, 9, 7)<<6
			return mk(CFSDSP, OpFSD, 0, RegSP, rs2Full, int32(uimm)), CValid
		case 6: // c.swsp
			uimm := bits(w, 12, 9)<<2 | bits(w, 8, 7)<<6
			return mk(CSWSP, OpSW, 0, RegSP, rs2Full, int32(uimm)), CValid
		default: // c.fswsp (RV32)
			uimm := bits(w, 12, 9)<<2 | bits(w, 8, 7)<<6
			return mk(CFSWSP, OpFSW, 0, RegSP, rs2Full, int32(uimm)), CValid
		}
	}
}

// cjImm extracts the CJ-format jump offset (c.j / c.jal).
func cjImm(w uint32) int32 {
	v := bit(w, 12)<<11 | bit(w, 11)<<4 | bits(w, 10, 9)<<8 | bit(w, 8)<<10 |
		bit(w, 7)<<6 | bit(w, 6)<<7 | bits(w, 5, 3)<<1 | bit(w, 2)<<5
	return signExtend(v, 12)
}

// cbImm extracts the CB-format branch offset (c.beqz / c.bnez).
func cbImm(w uint32) int32 {
	v := bit(w, 12)<<8 | bits(w, 11, 10)<<3 | bits(w, 6, 5)<<6 |
		bits(w, 4, 3)<<1 | bit(w, 2)<<5
	return signExtend(v, 9)
}
