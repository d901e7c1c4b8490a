package analysis

import "rvnegtest/internal/isa"

// Trap-suite analysis mode.
//
// The trap-instrumented template (template.FamilyTrap) installs a
// machine-mode handler that records each trap's mcause/mepc/mtval/mstatus
// into a dedicated signature region and resumes execution one word past
// the faulting slot ((mepc &^ 3) + 4). Under that template most of the
// user suite's forbidden envelope becomes *desired* behaviour: illegal
// encodings, ECALL, EBREAK, CSR accesses and unaligned memory traps all
// produce deterministic, comparable signature content instead of ending
// the test. The analysis engine models this as:
//
//   - illegal/ECALL/EBREAK sites become trap exits with a single resume
//     successor instead of terminating the path;
//   - every other non-terminal node carries a conservative trap-resume
//     edge (any instruction may fault under some configuration — FP ops
//     without F, misaligned fetch targets without C, CSR errors — and the
//     engine is configuration-agnostic), deduplicated against the
//     fall-through so aligned straight-line code keeps one successor per
//     site;
//   - the forbidden set shrinks to TrapForbidden below;
//   - the memory discipline keeps only the store rule (see violation).
//
// Resume offsets are strictly forward, so trap edges can never introduce
// cycles: loop detection and path counting carry over unchanged.

// mtvecCSR is the machine trap-vector base-address CSR (hart.CSRMtvec;
// the literal avoids an analysis→hart dependency).
const mtvecCSR = 0x305

// TrapForbidden reports whether an instruction stays forbidden under the
// trap-suite filter mode. The survivors are exactly the instructions that
// escape the recording handler's control:
//
//   - JALR: a dynamic jump through a dirty register leaves the modelled
//     CFG entirely (and a mispredicted-alignment fault would resume at a
//     point the static analysis cannot bound).
//   - WFI: stalls forever on a platform without interrupt sources.
//   - MRET/SRET/URET outside the handler: MRET redirects execution to a
//     body-controlled mepc; SRET/URET trap today but are reserved for
//     future privilege modes.
//   - CSR writes to mtvec: moving the trap vector away from the recording
//     handler breaks the resume protocol (the very next fault would jump
//     to an arbitrary address). Read-only accesses (CSRRS/C with rs1=x0,
//     CSRRSI/CI with a zero immediate) have no write effect and remain
//     allowed.
func TrapForbidden(inst isa.Inst) bool {
	switch inst.Op {
	case isa.OpJALR, isa.OpWFI, isa.OpMRET, isa.OpSRET, isa.OpURET:
		return true
	case isa.OpCSRRW, isa.OpCSRRWI:
		return inst.CSR == mtvecCSR
	case isa.OpCSRRS, isa.OpCSRRC:
		return inst.CSR == mtvecCSR && inst.Rs1 != 0
	case isa.OpCSRRSI, isa.OpCSRRCI:
		return inst.CSR == mtvecCSR && inst.Imm != 0
	}
	return false
}
