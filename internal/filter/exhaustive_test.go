package filter

import (
	"rvnegtest/internal/analysis"
	"rvnegtest/internal/isa"
)

// Exhaustive is the original path-enumeration filter engine: it forks an
// abstract state at every conditional branch and walks every control-flow
// path under a global step budget. It lives in the package's tests as
// the differential oracle for the fixpoint engine (Filter): Filter must
// accept a superset of what Exhaustive accepts — Exhaustive is strictly
// more conservative because it cannot fold statically decided branches
// and drops branch-dense inputs when the fork budget runs out
// (analysis.ReasonPathBudget).
type Exhaustive struct {
	// MaxLen, when nonzero, drops bytestreams longer than this many bytes.
	MaxLen int
	// Trap selects the trap-suite family semantics, mirroring
	// Filter.Trap: deliberate traps (illegal encodings, ECALL, EBREAK)
	// resume at (pc&^3)+4 instead of terminating the path, every other
	// instruction forks a conservative trap-resume state (deduplicated
	// against its static successors, exactly as the fixpoint engine
	// dedups its resume edges), the forbidden set shrinks to
	// analysis.TrapForbidden, and only stores keep the clean-base rule.
	// The per-instruction forking is exponential, so trap-mode Exhaustive
	// exhausts its budget on much shorter streams than user mode — that
	// is acceptable for an oracle (analysis.ReasonPathBudget drops never count
	// against the superset invariant).
	Trap bool
}

// maxSteps bounds the total abstract-execution work; exceeding it drops
// the bytestream conservatively (a defence against exponential branch
// lattices, which the fuzzer would otherwise be able to construct).
const maxSteps = 1 << 14

// cleanInit marks x30 and x31 as the only clean registers: the test-case
// template initializes them with the data-window address (section IV-B).
const cleanInit = 1<<30 | 1<<31

// state is one abstract execution state of the path enumeration.
type state struct {
	pc      int32
	clean   uint32 // bitmask of clean registers
	visited uint64 // bitmask over pc/2 positions
}

// Check runs the path-enumerating abstract execution over the bytestream.
func (f *Exhaustive) Check(bs []byte) Result {
	if f.MaxLen > 0 && len(bs) > f.MaxLen {
		return Result{Reason: analysis.ReasonTooLong, PC: int32(len(bs))}
	}
	// The injection area pads the bytestream to a whole word with zero
	// bytes; analyze what actually executes.
	n := int32(len(bs)+3) &^ 3
	padded := make([]byte, n)
	copy(padded, bs)
	if n/2 > 64 {
		// visited is a 64-bit set over half-word positions; the template
		// injection area (<= 80 bytes = 40 positions) always fits, but
		// guard against misuse.
		return Result{Reason: analysis.ReasonOutOfBounds, PC: n}
	}

	work := []state{{pc: 0, clean: cleanInit}}
	paths, steps := 0, 0
	drop := func(r analysis.Reason, pc int32, op isa.Op) Result {
		return Result{Reason: r, PC: pc, Op: op}
	}
	for len(work) > 0 {
		st := work[len(work)-1]
		work = work[:len(work)-1]
		for {
			if steps++; steps > maxSteps {
				return drop(analysis.ReasonPathBudget, st.pc, isa.OpIllegal)
			}
			if st.pc == n {
				paths++ // fell off the end: the template's jump slots finish the test
				break
			}
			if st.pc < 0 || st.pc > n {
				return drop(analysis.ReasonOutOfBounds, st.pc, isa.OpIllegal)
			}
			bit := uint64(1) << uint(st.pc/2)
			if st.visited&bit != 0 {
				return drop(analysis.ReasonLoop, st.pc, isa.OpIllegal)
			}
			st.visited |= bit

			lo := uint32(padded[st.pc]) | uint32(padded[st.pc+1])<<8
			var inst isa.Inst
			if lo&3 == 3 {
				if st.pc+4 > n {
					return drop(analysis.ReasonStraddle, st.pc, isa.OpIllegal)
				}
				word := lo | uint32(padded[st.pc+2])<<16 | uint32(padded[st.pc+3])<<24
				inst = isa.Ref.Decode32(word)
			} else {
				inst = isa.Ref.DecodeC(uint16(lo))
			}

			info := inst.Info()
			if info == nil {
				if f.Trap {
					// Trap suite: the recording handler resumes one word
					// past the faulting slot.
					st.pc = resumePC(st.pc)
					continue
				}
				// Illegal encoding: execution takes the exception and the
				// trap handler ends the test. The path is accepted.
				paths++
				break
			}
			if f.Trap {
				if analysis.TrapForbidden(inst) {
					return drop(analysis.ReasonForbidden, st.pc, inst.Op)
				}
				if inst.Op == isa.OpECALL || inst.Op == isa.OpEBREAK {
					// Deliberate trap: recorded, then resumed.
					st.pc = resumePC(st.pc)
					continue
				}
			} else {
				if info.Flags.Is(isa.FlagForbidden) {
					return drop(analysis.ReasonForbidden, st.pc, inst.Op)
				}
				if inst.Op == isa.OpECALL {
					// Deterministic trap into the handler: path accepted.
					paths++
					break
				}
			}

			// Memory access discipline; in trap mode faults are desired
			// events, so only stores keep the clean-base rule.
			if info.Flags.Any(isa.FlagLoad | isa.FlagStore) {
				dirtyBase := st.clean&(1<<inst.Rs1) == 0
				if f.Trap {
					if info.Flags.Is(isa.FlagStore) && dirtyBase {
						return drop(analysis.ReasonDirtyAddress, st.pc, inst.Op)
					}
				} else {
					if dirtyBase {
						return drop(analysis.ReasonDirtyAddress, st.pc, inst.Op)
					}
					if info.MemSize > 1 && inst.Imm&int32(info.MemSize-1) != 0 {
						return drop(analysis.ReasonUnalignedImm, st.pc, inst.Op)
					}
				}
			}

			// forkResume mirrors the fixpoint engine's conservative
			// trap-resume edge: any surviving instruction might still fault
			// (FP without F, CSR errors, misaligned fetch/data), resuming
			// at (pc&^3)+4. The fork is deduplicated against the
			// instruction's static successors with the same rule the
			// fixpoint engine applies, keeping its path counts an upper
			// bound on the fixpoint engine's.
			forkResume := func(succs ...int32) {
				if !f.Trap {
					return
				}
				r := resumePC(st.pc)
				for _, t := range succs {
					if t == r {
						return
					}
				}
				alt := st
				alt.pc = r
				work = append(work, alt)
			}

			switch {
			case inst.Op == isa.OpJAL:
				st.clean &^= regBit(inst.Rd)
				forkResume(st.pc + inst.Imm)
				st.pc += inst.Imm
				continue
			case info.Flags.Is(isa.FlagBranch):
				taken := st
				taken.pc += inst.Imm
				work = append(work, taken)
				forkResume(st.pc+int32(inst.Size), taken.pc)
				st.pc += int32(inst.Size)
				continue
			}

			if info.Flags.Is(isa.FlagWritesRD) {
				st.clean &^= regBit(inst.Rd)
			}
			forkResume(st.pc + int32(inst.Size))
			st.pc += int32(inst.Size)
		}
	}
	return Result{Accepted: true, Paths: paths}
}

// resumePC is where the trap template's handler resumes after a fault at
// pc: mepc masked to its enclosing word, advanced one word. Strictly
// greater than pc and never past the padded end.
func resumePC(pc int32) int32 { return (pc &^ 3) + 4 }

func regBit(r isa.Reg) uint32 {
	if r == 0 {
		return 0
	}
	return 1 << r
}
