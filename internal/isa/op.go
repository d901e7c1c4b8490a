package isa

// Op enumerates every operation of the RV32GC envelope. Compressed
// instructions expand to their base operation (the expansion defined by the
// C extension), so an Op always denotes 32-bit instruction semantics.
type Op uint16

// Operations. OpIllegal denotes an encoding that does not decode to any
// instruction of the RV32GC envelope and must raise an illegal-instruction
// exception.
const (
	OpIllegal Op = iota

	// RV32I
	OpLUI
	OpAUIPC
	OpJAL
	OpJALR
	OpBEQ
	OpBNE
	OpBLT
	OpBGE
	OpBLTU
	OpBGEU
	OpLB
	OpLH
	OpLW
	OpLBU
	OpLHU
	OpSB
	OpSH
	OpSW
	OpADDI
	OpSLTI
	OpSLTIU
	OpXORI
	OpORI
	OpANDI
	OpSLLI
	OpSRLI
	OpSRAI
	OpADD
	OpSUB
	OpSLL
	OpSLT
	OpSLTU
	OpXOR
	OpSRL
	OpSRA
	OpOR
	OpAND
	OpFENCE
	OpFENCEI
	OpECALL
	OpEBREAK

	// Zicsr
	OpCSRRW
	OpCSRRS
	OpCSRRC
	OpCSRRWI
	OpCSRRSI
	OpCSRRCI

	// Privileged (machine mode and friends)
	OpMRET
	OpSRET
	OpURET
	OpWFI
	OpSFENCEVMA

	// M
	OpMUL
	OpMULH
	OpMULHSU
	OpMULHU
	OpDIV
	OpDIVU
	OpREM
	OpREMU

	// A
	OpLRW
	OpSCW
	OpAMOSWAPW
	OpAMOADDW
	OpAMOXORW
	OpAMOANDW
	OpAMOORW
	OpAMOMINW
	OpAMOMAXW
	OpAMOMINUW
	OpAMOMAXUW

	// F
	OpFLW
	OpFSW
	OpFMADDS
	OpFMSUBS
	OpFNMSUBS
	OpFNMADDS
	OpFADDS
	OpFSUBS
	OpFMULS
	OpFDIVS
	OpFSQRTS
	OpFSGNJS
	OpFSGNJNS
	OpFSGNJXS
	OpFMINS
	OpFMAXS
	OpFCVTWS
	OpFCVTWUS
	OpFMVXW
	OpFEQS
	OpFLTS
	OpFLES
	OpFCLASSS
	OpFCVTSW
	OpFCVTSWU
	OpFMVWX

	// D
	OpFLD
	OpFSD
	OpFMADDD
	OpFMSUBD
	OpFNMSUBD
	OpFNMADDD
	OpFADDD
	OpFSUBD
	OpFMULD
	OpFDIVD
	OpFSQRTD
	OpFSGNJD
	OpFSGNJND
	OpFSGNJXD
	OpFMIND
	OpFMAXD
	OpFCVTSD
	OpFCVTDS
	OpFEQD
	OpFLTD
	OpFLED
	OpFCLASSD
	OpFCVTWD
	OpFCVTWUD
	OpFCVTDW
	OpFCVTDWU

	// OpCustomNOP is not a real RISC-V operation: it models the riscvOVPsim
	// defect in which certain custom-0/custom-1 encodings are accepted as
	// legal no-ops instead of raising an illegal-instruction exception. The
	// reference decoder never produces it.
	OpCustomNOP

	opCount
)

// Flags describes static properties of an operation used by the executor,
// the test filter, the mutator and the coverage rules.
type Flags uint32

const (
	// FlagWritesRD: the instruction writes the integer register rd.
	FlagWritesRD Flags = 1 << iota
	// FlagReadsRS1 / FlagReadsRS2 / FlagReadsRS3: integer source registers.
	FlagReadsRS1
	FlagReadsRS2
	// FlagLoad / FlagStore: the instruction accesses memory at
	// x[rs1]+imm (or x[rs1] for atomics).
	FlagLoad
	FlagStore
	// FlagBranch: conditional branch (forks control flow in the filter).
	FlagBranch
	// FlagJump: unconditional control transfer (JAL, JALR).
	FlagJump
	// FlagForbidden: the filter's forbidden category (section IV-C of the
	// paper): JALR, xRET, WFI, EBREAK, SFENCE.VMA and all CSR instructions.
	FlagForbidden
	// FlagCSR: one of the six Zicsr instructions.
	FlagCSR
	// FlagTrap: unconditionally raises an exception (ECALL, EBREAK).
	FlagTrap
	// FlagAMO: an A-extension memory operation (address in rs1, no imm).
	FlagAMO
	// FlagFPRd / FlagFPRs1 / FlagFPRs2 / FlagFPRs3: the corresponding
	// operand field names a floating-point register.
	FlagFPRd
	FlagFPRs1
	FlagFPRs2
	FlagFPRs3
	// FlagHasRM: the instruction has a rounding-mode field (funct3).
	FlagHasRM
	// FlagFP: the instruction belongs to the F or D extension (requires
	// mstatus.FS to be enabled).
	FlagFP
)

// Format identifies the encoding format of an instruction, which determines
// how operand fields and immediates are packed into the 32-bit word.
type Format uint8

const (
	FmtNone   Format = iota // no operands beyond the fixed pattern (ECALL, MRET, ...)
	FmtR                    // rd, rs1, rs2
	FmtR4                   // rd, rs1, rs2, rs3, rm (fused multiply-add)
	FmtRrm                  // rd, rs1, rs2, rm (FP two-operand arithmetic)
	FmtR2rm                 // rd, rs1, rm (FSQRT, FCVT)
	FmtR2                   // rd, rs1 (FMV, FCLASS)
	FmtI                    // rd, rs1, imm12
	FmtIShift               // rd, rs1, shamt5
	FmtS                    // rs1, rs2, imm12 (stores)
	FmtB                    // rs1, rs2, branch offset
	FmtU                    // rd, imm20 (upper)
	FmtJ                    // rd, jump offset
	FmtCSR                  // rd, csr, rs1
	FmtCSRI                 // rd, csr, zimm5
	FmtAMO                  // rd, rs2, (rs1) with aq/rl bits
	FmtFence                // fence pred/succ (treated as fixed)
)

// OpInfo is one row of the instruction database.
type OpInfo struct {
	Op    Op
	Name  string // canonical assembler mnemonic
	Mask  uint32 // bits fixed by the encoding
	Match uint32 // value of the fixed bits
	Fmt   Format
	Ext   Ext   // extension that provides the instruction
	Flags Flags // static properties
	// MemSize is the access width in bytes for loads/stores/atomics
	// (1, 2, 4 or 8); zero otherwise. The filter requires immediates of
	// memory instructions to be MemSize-aligned.
	MemSize uint8
}

// Instructions is the database of all 32-bit (non-compressed) instructions of
// the RV32GC envelope. Compressed instructions are handled by the dedicated
// RVC decoder, which expands them to one of these operations.
var Instructions = []OpInfo{
	// RV32I
	{OpLUI, "lui", 0x0000007f, 0x00000037, FmtU, ExtI, FlagWritesRD, 0},
	{OpAUIPC, "auipc", 0x0000007f, 0x00000017, FmtU, ExtI, FlagWritesRD, 0},
	{OpJAL, "jal", 0x0000007f, 0x0000006f, FmtJ, ExtI, FlagWritesRD | FlagJump, 0},
	{OpJALR, "jalr", 0x0000707f, 0x00000067, FmtI, ExtI, FlagWritesRD | FlagReadsRS1 | FlagJump | FlagForbidden, 0},
	{OpBEQ, "beq", 0x0000707f, 0x00000063, FmtB, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagBranch, 0},
	{OpBNE, "bne", 0x0000707f, 0x00001063, FmtB, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagBranch, 0},
	{OpBLT, "blt", 0x0000707f, 0x00004063, FmtB, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagBranch, 0},
	{OpBGE, "bge", 0x0000707f, 0x00005063, FmtB, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagBranch, 0},
	{OpBLTU, "bltu", 0x0000707f, 0x00006063, FmtB, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagBranch, 0},
	{OpBGEU, "bgeu", 0x0000707f, 0x00007063, FmtB, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagBranch, 0},
	{OpLB, "lb", 0x0000707f, 0x00000003, FmtI, ExtI, FlagWritesRD | FlagReadsRS1 | FlagLoad, 1},
	{OpLH, "lh", 0x0000707f, 0x00001003, FmtI, ExtI, FlagWritesRD | FlagReadsRS1 | FlagLoad, 2},
	{OpLW, "lw", 0x0000707f, 0x00002003, FmtI, ExtI, FlagWritesRD | FlagReadsRS1 | FlagLoad, 4},
	{OpLBU, "lbu", 0x0000707f, 0x00004003, FmtI, ExtI, FlagWritesRD | FlagReadsRS1 | FlagLoad, 1},
	{OpLHU, "lhu", 0x0000707f, 0x00005003, FmtI, ExtI, FlagWritesRD | FlagReadsRS1 | FlagLoad, 2},
	{OpSB, "sb", 0x0000707f, 0x00000023, FmtS, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagStore, 1},
	{OpSH, "sh", 0x0000707f, 0x00001023, FmtS, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagStore, 2},
	{OpSW, "sw", 0x0000707f, 0x00002023, FmtS, ExtI, FlagReadsRS1 | FlagReadsRS2 | FlagStore, 4},
	{OpADDI, "addi", 0x0000707f, 0x00000013, FmtI, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpSLTI, "slti", 0x0000707f, 0x00002013, FmtI, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpSLTIU, "sltiu", 0x0000707f, 0x00003013, FmtI, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpXORI, "xori", 0x0000707f, 0x00004013, FmtI, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpORI, "ori", 0x0000707f, 0x00006013, FmtI, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpANDI, "andi", 0x0000707f, 0x00007013, FmtI, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpSLLI, "slli", 0xfe00707f, 0x00001013, FmtIShift, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpSRLI, "srli", 0xfe00707f, 0x00005013, FmtIShift, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpSRAI, "srai", 0xfe00707f, 0x40005013, FmtIShift, ExtI, FlagWritesRD | FlagReadsRS1, 0},
	{OpADD, "add", 0xfe00707f, 0x00000033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpSUB, "sub", 0xfe00707f, 0x40000033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpSLL, "sll", 0xfe00707f, 0x00001033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpSLT, "slt", 0xfe00707f, 0x00002033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpSLTU, "sltu", 0xfe00707f, 0x00003033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpXOR, "xor", 0xfe00707f, 0x00004033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpSRL, "srl", 0xfe00707f, 0x00005033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpSRA, "sra", 0xfe00707f, 0x40005033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpOR, "or", 0xfe00707f, 0x00006033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpAND, "and", 0xfe00707f, 0x00007033, FmtR, ExtI, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpFENCE, "fence", 0x0000707f, 0x0000000f, FmtFence, ExtI, 0, 0},
	{OpFENCEI, "fence.i", 0x0000707f, 0x0000100f, FmtFence, ExtI, 0, 0},
	{OpECALL, "ecall", 0xffffffff, 0x00000073, FmtNone, ExtI, FlagTrap, 0},
	{OpEBREAK, "ebreak", 0xffffffff, 0x00100073, FmtNone, ExtI, FlagTrap | FlagForbidden, 0},

	// Zicsr
	{OpCSRRW, "csrrw", 0x0000707f, 0x00001073, FmtCSR, ExtZicsr, FlagWritesRD | FlagReadsRS1 | FlagCSR | FlagForbidden, 0},
	{OpCSRRS, "csrrs", 0x0000707f, 0x00002073, FmtCSR, ExtZicsr, FlagWritesRD | FlagReadsRS1 | FlagCSR | FlagForbidden, 0},
	{OpCSRRC, "csrrc", 0x0000707f, 0x00003073, FmtCSR, ExtZicsr, FlagWritesRD | FlagReadsRS1 | FlagCSR | FlagForbidden, 0},
	{OpCSRRWI, "csrrwi", 0x0000707f, 0x00005073, FmtCSRI, ExtZicsr, FlagWritesRD | FlagCSR | FlagForbidden, 0},
	{OpCSRRSI, "csrrsi", 0x0000707f, 0x00006073, FmtCSRI, ExtZicsr, FlagWritesRD | FlagCSR | FlagForbidden, 0},
	{OpCSRRCI, "csrrci", 0x0000707f, 0x00007073, FmtCSRI, ExtZicsr, FlagWritesRD | FlagCSR | FlagForbidden, 0},

	// Privileged
	{OpMRET, "mret", 0xffffffff, 0x30200073, FmtNone, ExtPriv, FlagForbidden, 0},
	{OpSRET, "sret", 0xffffffff, 0x10200073, FmtNone, ExtPriv, FlagForbidden, 0},
	{OpURET, "uret", 0xffffffff, 0x00200073, FmtNone, ExtPriv, FlagForbidden, 0},
	{OpWFI, "wfi", 0xffffffff, 0x10500073, FmtNone, ExtPriv, FlagForbidden, 0},
	{OpSFENCEVMA, "sfence.vma", 0xfe007fff, 0x12000073, FmtR, ExtPriv, FlagReadsRS1 | FlagReadsRS2 | FlagForbidden, 0},

	// M
	{OpMUL, "mul", 0xfe00707f, 0x02000033, FmtR, ExtM, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpMULH, "mulh", 0xfe00707f, 0x02001033, FmtR, ExtM, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpMULHSU, "mulhsu", 0xfe00707f, 0x02002033, FmtR, ExtM, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpMULHU, "mulhu", 0xfe00707f, 0x02003033, FmtR, ExtM, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpDIV, "div", 0xfe00707f, 0x02004033, FmtR, ExtM, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpDIVU, "divu", 0xfe00707f, 0x02005033, FmtR, ExtM, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpREM, "rem", 0xfe00707f, 0x02006033, FmtR, ExtM, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},
	{OpREMU, "remu", 0xfe00707f, 0x02007033, FmtR, ExtM, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2, 0},

	// A (aq/rl bits 26:25 are free)
	{OpLRW, "lr.w", 0xf9f0707f, 0x1000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagLoad | FlagAMO, 4},
	{OpSCW, "sc.w", 0xf800707f, 0x1800202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagStore | FlagAMO, 4},
	{OpAMOSWAPW, "amoswap.w", 0xf800707f, 0x0800202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},
	{OpAMOADDW, "amoadd.w", 0xf800707f, 0x0000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},
	{OpAMOXORW, "amoxor.w", 0xf800707f, 0x2000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},
	{OpAMOANDW, "amoand.w", 0xf800707f, 0x6000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},
	{OpAMOORW, "amoor.w", 0xf800707f, 0x4000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},
	{OpAMOMINW, "amomin.w", 0xf800707f, 0x8000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},
	{OpAMOMAXW, "amomax.w", 0xf800707f, 0xa000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},
	{OpAMOMINUW, "amominu.w", 0xf800707f, 0xc000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},
	{OpAMOMAXUW, "amomaxu.w", 0xf800707f, 0xe000202f, FmtAMO, ExtA, FlagWritesRD | FlagReadsRS1 | FlagReadsRS2 | FlagLoad | FlagStore | FlagAMO, 4},

	// F
	{OpFLW, "flw", 0x0000707f, 0x00002007, FmtI, ExtF, FlagFPRd | FlagReadsRS1 | FlagLoad | FlagFP, 4},
	{OpFSW, "fsw", 0x0000707f, 0x00002027, FmtS, ExtF, FlagFPRs2 | FlagReadsRS1 | FlagStore | FlagFP, 4},
	{OpFMADDS, "fmadd.s", 0x0600007f, 0x00000043, FmtR4, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFPRs3 | FlagHasRM | FlagFP, 0},
	{OpFMSUBS, "fmsub.s", 0x0600007f, 0x00000047, FmtR4, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFPRs3 | FlagHasRM | FlagFP, 0},
	{OpFNMSUBS, "fnmsub.s", 0x0600007f, 0x0000004b, FmtR4, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFPRs3 | FlagHasRM | FlagFP, 0},
	{OpFNMADDS, "fnmadd.s", 0x0600007f, 0x0000004f, FmtR4, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFPRs3 | FlagHasRM | FlagFP, 0},
	{OpFADDS, "fadd.s", 0xfe00007f, 0x00000053, FmtRrm, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagHasRM | FlagFP, 0},
	{OpFSUBS, "fsub.s", 0xfe00007f, 0x08000053, FmtRrm, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagHasRM | FlagFP, 0},
	{OpFMULS, "fmul.s", 0xfe00007f, 0x10000053, FmtRrm, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagHasRM | FlagFP, 0},
	{OpFDIVS, "fdiv.s", 0xfe00007f, 0x18000053, FmtRrm, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagHasRM | FlagFP, 0},
	{OpFSQRTS, "fsqrt.s", 0xfff0007f, 0x58000053, FmtR2rm, ExtF, FlagFPRd | FlagFPRs1 | FlagHasRM | FlagFP, 0},
	{OpFSGNJS, "fsgnj.s", 0xfe00707f, 0x20000053, FmtR, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFSGNJNS, "fsgnjn.s", 0xfe00707f, 0x20001053, FmtR, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFSGNJXS, "fsgnjx.s", 0xfe00707f, 0x20002053, FmtR, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFMINS, "fmin.s", 0xfe00707f, 0x28000053, FmtR, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFMAXS, "fmax.s", 0xfe00707f, 0x28001053, FmtR, ExtF, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFCVTWS, "fcvt.w.s", 0xfff0007f, 0xc0000053, FmtR2rm, ExtF, FlagWritesRD | FlagFPRs1 | FlagHasRM | FlagFP, 0},
	{OpFCVTWUS, "fcvt.wu.s", 0xfff0007f, 0xc0100053, FmtR2rm, ExtF, FlagWritesRD | FlagFPRs1 | FlagHasRM | FlagFP, 0},
	{OpFMVXW, "fmv.x.w", 0xfff0707f, 0xe0000053, FmtR2, ExtF, FlagWritesRD | FlagFPRs1 | FlagFP, 0},
	{OpFEQS, "feq.s", 0xfe00707f, 0xa0002053, FmtR, ExtF, FlagWritesRD | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFLTS, "flt.s", 0xfe00707f, 0xa0001053, FmtR, ExtF, FlagWritesRD | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFLES, "fle.s", 0xfe00707f, 0xa0000053, FmtR, ExtF, FlagWritesRD | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFCLASSS, "fclass.s", 0xfff0707f, 0xe0001053, FmtR2, ExtF, FlagWritesRD | FlagFPRs1 | FlagFP, 0},
	{OpFCVTSW, "fcvt.s.w", 0xfff0007f, 0xd0000053, FmtR2rm, ExtF, FlagFPRd | FlagReadsRS1 | FlagHasRM | FlagFP, 0},
	{OpFCVTSWU, "fcvt.s.wu", 0xfff0007f, 0xd0100053, FmtR2rm, ExtF, FlagFPRd | FlagReadsRS1 | FlagHasRM | FlagFP, 0},
	{OpFMVWX, "fmv.w.x", 0xfff0707f, 0xf0000053, FmtR2, ExtF, FlagFPRd | FlagReadsRS1 | FlagFP, 0},

	// D
	{OpFLD, "fld", 0x0000707f, 0x00003007, FmtI, ExtD, FlagFPRd | FlagReadsRS1 | FlagLoad | FlagFP, 8},
	{OpFSD, "fsd", 0x0000707f, 0x00003027, FmtS, ExtD, FlagFPRs2 | FlagReadsRS1 | FlagStore | FlagFP, 8},
	{OpFMADDD, "fmadd.d", 0x0600007f, 0x02000043, FmtR4, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFPRs3 | FlagHasRM | FlagFP, 0},
	{OpFMSUBD, "fmsub.d", 0x0600007f, 0x02000047, FmtR4, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFPRs3 | FlagHasRM | FlagFP, 0},
	{OpFNMSUBD, "fnmsub.d", 0x0600007f, 0x0200004b, FmtR4, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFPRs3 | FlagHasRM | FlagFP, 0},
	{OpFNMADDD, "fnmadd.d", 0x0600007f, 0x0200004f, FmtR4, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFPRs3 | FlagHasRM | FlagFP, 0},
	{OpFADDD, "fadd.d", 0xfe00007f, 0x02000053, FmtRrm, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagHasRM | FlagFP, 0},
	{OpFSUBD, "fsub.d", 0xfe00007f, 0x0a000053, FmtRrm, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagHasRM | FlagFP, 0},
	{OpFMULD, "fmul.d", 0xfe00007f, 0x12000053, FmtRrm, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagHasRM | FlagFP, 0},
	{OpFDIVD, "fdiv.d", 0xfe00007f, 0x1a000053, FmtRrm, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagHasRM | FlagFP, 0},
	{OpFSQRTD, "fsqrt.d", 0xfff0007f, 0x5a000053, FmtR2rm, ExtD, FlagFPRd | FlagFPRs1 | FlagHasRM | FlagFP, 0},
	{OpFSGNJD, "fsgnj.d", 0xfe00707f, 0x22000053, FmtR, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFSGNJND, "fsgnjn.d", 0xfe00707f, 0x22001053, FmtR, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFSGNJXD, "fsgnjx.d", 0xfe00707f, 0x22002053, FmtR, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFMIND, "fmin.d", 0xfe00707f, 0x2a000053, FmtR, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFMAXD, "fmax.d", 0xfe00707f, 0x2a001053, FmtR, ExtD, FlagFPRd | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFCVTSD, "fcvt.s.d", 0xfff0007f, 0x40100053, FmtR2rm, ExtD, FlagFPRd | FlagFPRs1 | FlagHasRM | FlagFP, 0},
	{OpFCVTDS, "fcvt.d.s", 0xfff0007f, 0x42000053, FmtR2rm, ExtD, FlagFPRd | FlagFPRs1 | FlagHasRM | FlagFP, 0},
	{OpFEQD, "feq.d", 0xfe00707f, 0xa2002053, FmtR, ExtD, FlagWritesRD | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFLTD, "flt.d", 0xfe00707f, 0xa2001053, FmtR, ExtD, FlagWritesRD | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFLED, "fle.d", 0xfe00707f, 0xa2000053, FmtR, ExtD, FlagWritesRD | FlagFPRs1 | FlagFPRs2 | FlagFP, 0},
	{OpFCLASSD, "fclass.d", 0xfff0707f, 0xe2001053, FmtR2, ExtD, FlagWritesRD | FlagFPRs1 | FlagFP, 0},
	{OpFCVTWD, "fcvt.w.d", 0xfff0007f, 0xc2000053, FmtR2rm, ExtD, FlagWritesRD | FlagFPRs1 | FlagHasRM | FlagFP, 0},
	{OpFCVTWUD, "fcvt.wu.d", 0xfff0007f, 0xc2100053, FmtR2rm, ExtD, FlagWritesRD | FlagFPRs1 | FlagHasRM | FlagFP, 0},
	{OpFCVTDW, "fcvt.d.w", 0xfff0007f, 0xd2000053, FmtR2rm, ExtD, FlagFPRd | FlagReadsRS1 | FlagHasRM | FlagFP, 0},
	{OpFCVTDWU, "fcvt.d.wu", 0xfff0007f, 0xd2100053, FmtR2rm, ExtD, FlagFPRd | FlagReadsRS1 | FlagHasRM | FlagFP, 0},
}

var (
	infoByOp     [opCount]*OpInfo
	byMajor      [32][]*OpInfo // indexed by bits [6:2] of the instruction word
	customNOPRow = OpInfo{OpCustomNOP, "custom.nop", 0xffffffff, 0, FmtNone, ExtI, 0, 0}
)

func init() {
	for i := range Instructions {
		in := &Instructions[i]
		if infoByOp[in.Op] != nil {
			panic("isa: duplicate op in instruction table: " + in.Name)
		}
		infoByOp[in.Op] = in
		if in.Match&0x3 != 0x3 {
			panic("isa: non-32-bit match pattern for " + in.Name)
		}
		if in.Match&^in.Mask != 0 {
			panic("isa: match has bits outside mask for " + in.Name)
		}
		major := (in.Match >> 2) & 0x1f
		byMajor[major] = append(byMajor[major], in)
	}
	infoByOp[OpCustomNOP] = &customNOPRow
}

// Info returns the database row for op. Returns nil for OpIllegal.
func (op Op) Info() *OpInfo {
	if op == OpIllegal || op >= opCount {
		return nil
	}
	return infoByOp[op]
}

// String returns the canonical mnemonic of the operation.
func (op Op) String() string {
	if in := op.Info(); in != nil {
		return in.Name
	}
	return "illegal"
}

// Flags returns the static property flags of the operation (zero for
// OpIllegal).
func (op Op) Flags() Flags {
	if in := op.Info(); in != nil {
		return in.Flags
	}
	return 0
}

// NumOps returns the number of defined operations, usable for sizing
// per-operation tables (Op values are < NumOps()).
func NumOps() int { return int(opCount) }

// LookupName finds an instruction by its canonical mnemonic.
func LookupName(name string) *OpInfo {
	for i := range Instructions {
		if Instructions[i].Name == name {
			return &Instructions[i]
		}
	}
	return nil
}

// Is reports whether all given flags are set.
func (f Flags) Is(want Flags) bool { return f&want == want }

// Any reports whether at least one of the given flags is set.
func (f Flags) Any(want Flags) bool { return f&want != 0 }
