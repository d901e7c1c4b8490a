// Package exec implements the instruction-set simulator core: a
// fetch-decode-execute loop with full RV32GC semantics over the hart and
// memory models. It is the foundation every simulator variant in this
// repository shares (the paper's counterpart is the RISC-V VP 32-bit ISS);
// variants differ only in decoder/executor quirks and platform parameters.
//
// The executor also emits semantic edge coverage through a Hook, playing
// the role of the Clang -fsanitize=fuzzer instrumentation in the paper:
// every distinct (operation, outcome) pair is a coverage edge.
//
// Every step takes one path: fetch the encoding at PC, decode it (with
// the variant's quirks) through a small memo keyed by the encoding
// itself, check legality, dispatch (see Executor.Step).
package exec

import (
	"errors"
	"fmt"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// Quirks enables controlled deviations from the reference execution
// semantics, each modelling one execution bug the paper reports.
type Quirks struct {
	// LinkBeforeAlignCheck (models the GRIFT defect): JAL/JALR write the
	// link register before the target-alignment check, so an invalid jump
	// has a side effect although it raises an exception.
	LinkBeforeAlignCheck bool
	// SCIgnoresReservation (models the GRIFT defect): SC.W performs the
	// memory write and reports success even without a pending LR.W
	// reservation.
	SCIgnoresReservation bool
	// EcallMarksCompletion (models the Spike defect): an ECALL inside the
	// test body corrupts the dumped signature; modelled as the completion
	// marker x26 being incremented although the trap path must bypass it.
	EcallMarksCompletion bool
	// Priv are the seeded privileged-architecture defects (trap/CSR
	// behaviour), applied to the hart the executor drives. They are only
	// observable through the trap-family template, which records trap
	// tuples into its signature.
	Priv hart.Quirks
}

// Outcome kinds for semantic edge coverage.
const (
	EdgeRetire      = 0 // instruction retired normally
	EdgeBranchTaken = 1
	EdgeBranchNot   = 2
	EdgeTrapIllegal = 3
	EdgeTrapOther   = 4
)

// EdgeSpace is the number of distinct edge IDs the executor can emit.
func EdgeSpace() int { return isa.NumOps() * 8 }

// Hook observes execution for coverage collection. Both methods may be
// called very frequently; implementations must be cheap.
type Hook interface {
	// OnInst is called before a legal instruction executes, with register
	// values still holding the input state (for value-coverage rules).
	// inst points at the executor's scratch record and is valid only for
	// the duration of the call: implementations must not retain it.
	OnInst(inst *isa.Inst, h *hart.Hart)
	// OnEdge is called once per executed instruction with a stable
	// (operation, outcome) edge ID.
	OnEdge(edge uint32)
}

// ErrTimeout is returned by Run when the instruction limit is exhausted
// before the program halts (the non-termination defence).
var ErrTimeout = errors.New("exec: instruction limit exceeded")

// Executor runs a program on a hart and a memory.
type Executor struct {
	CPU *hart.Hart
	Mem *mem.Memory
	// Dec decodes the fetched encodings. The executor's decode memo
	// holds Dec's results, so Dec must not be reassigned after the
	// first Step.
	Dec    *isa.Decoder
	Quirks Quirks

	// TrapUnaligned selects the platform's unaligned data-access policy:
	// trap with a misaligned exception (true) or perform the access
	// (false). Both are specification-compliant; the divergence is exactly
	// why the paper's filter requires aligned immediates.
	TrapUnaligned bool

	// HaltAddr is the magic store address that ends simulation (the
	// compliance "halt and dump signature" mechanism).
	HaltAddr uint32

	// WFIHalts makes WFI stall forever (no interrupt sources exist, so a
	// platform that really waits never resumes). Legal behaviour; one of
	// the reasons the test filter forbids WFI.
	WFIHalts bool
	// EbreakHalts makes EBREAK terminate simulation without a signature
	// (debugger semantics). Legal behaviour; why the filter forbids
	// EBREAK.
	EbreakHalts bool

	Hook Hook

	Halted    bool
	InstCount uint64
	// TrapCount counts taken traps (telemetry; trap-family runs take many
	// per test case, user-family runs at most one).
	TrapCount uint64

	// cur is the record of the instruction being dispatched: the hook
	// and the handler receive &cur. Reusing one field keeps the record
	// off the heap; a local whose address reaches the indirect hook and
	// handler calls would escape on every retired instruction.
	cur isa.Inst

	// memo holds recent decodes, keyed by the encoding (see Step).
	memo [memoSize]memoEntry
}

// memoBits sizes the decode memo: 256 entries hold a run's input and the
// trap handler at once.
const (
	memoBits = 8
	memoSize = 1 << memoBits
)

// memoSlot picks key's memo entry by multiplicative hashing, so the
// high bits of a 32-bit encoding count as much as its opcode bits.
func memoSlot(key uint32) uint32 { return key * 0x9e3779b1 >> (32 - memoBits) }

// memoEntry is one decode: inst is exactly what Dec returned for key, a
// 32-bit encoding or a compressed halfword. A zero Size marks an empty
// entry.
type memoEntry struct {
	key  uint32
	inst isa.Inst
}

// New builds an executor around existing hart and memory.
func New(cpu *hart.Hart, m *mem.Memory, dec *isa.Decoder) *Executor {
	return &Executor{CPU: cpu, Mem: m, Dec: dec}
}

// Run steps until the program halts or limit instructions have executed.
func (e *Executor) Run(limit uint64) error {
	for !e.Halted {
		if e.InstCount >= limit {
			return ErrTimeout
		}
		e.Step()
	}
	return nil
}

func (e *Executor) edge(op isa.Op, kind uint32) {
	if e.Hook != nil {
		e.Hook.OnEdge(uint32(op)*8 + kind)
	}
}

// Step executes one instruction (or takes one trap): fetch, decode,
// check legality for this ISA configuration, dispatch.
func (e *Executor) Step() {
	h := e.CPU
	e.InstCount++
	h.Mcycle++

	// Fetch the encoding: the 32-bit word, or the halfword of a
	// compressed instruction.
	key, ok := e.Mem.Fetch(h.PC)
	if !ok {
		if key, ok = e.fetchEdge(h.PC); !ok {
			e.trap(isa.OpIllegal, hart.CauseFetchAccessFault, h.PC)
			return
		}
	}
	if key&3 != 3 {
		key &= 0xffff
	}

	// Decode through the memo. The key is the encoding itself, so a
	// store that rewrites code changes the key and no entry ever goes
	// stale. The two key spaces never overlap: a 32-bit encoding ends in
	// 11, a compressed halfword does not.
	inst := &e.cur
	if key&3 != 3 && !h.Cfg.Has(isa.ExtC) {
		// Without the C extension the RVC decoder is never entered; the
		// halfword is simply an illegal encoding.
		*inst = isa.Inst{Op: isa.OpIllegal, Raw: key, Size: 2}
	} else {
		m := &e.memo[memoSlot(key)]
		if m.key != key || m.inst.Size == 0 {
			// A decode that panics (the modelled decoder crash) stores
			// nothing, so the crash fires on every fetch of its pattern.
			m.inst = e.Dec.Decode(key)
			m.key = key
		}
		*inst = m.inst
	}

	// Legality for this ISA configuration.
	info := inst.Info()
	switch {
	case info == nil:
		e.trap(inst.Op, hart.CauseIllegalInstruction, inst.Raw)
		return
	case !h.Cfg.Has(info.Ext):
		e.trap(inst.Op, hart.CauseIllegalInstruction, inst.Raw)
		return
	case info.Flags.Is(isa.FlagFP) && !h.FPEnabled():
		e.trap(inst.Op, hart.CauseIllegalInstruction, inst.Raw)
		return
	}

	if e.Hook != nil {
		e.Hook.OnInst(inst, h)
	}
	handlers[inst.Op](e, inst)
}

// fetchEdge fetches at pc where the word there leaves memory: halfword
// by halfword, so a compressed instruction in the last halfword still
// executes. ok is false on a fetch access fault.
func (e *Executor) fetchEdge(pc uint32) (uint32, bool) {
	lo, ok := e.Mem.Load(pc, 2)
	if ok && lo&3 == 3 {
		var hi uint64
		hi, ok = e.Mem.Load(pc+2, 2)
		lo |= hi << 16
	}
	return uint32(lo), ok
}

// trap redirects to the machine trap handler and emits the trap edge.
func (e *Executor) trap(op isa.Op, cause, tval uint32) {
	kind := uint32(EdgeTrapOther)
	if cause == hart.CauseIllegalInstruction {
		kind = EdgeTrapIllegal
	}
	e.edge(op, kind)
	e.TrapCount++
	e.CPU.Trap(cause, tval)
}

// retire advances the PC past the instruction and counts it.
func (e *Executor) retire(in *isa.Inst) {
	e.CPU.PC += uint32(in.Size)
	e.CPU.Minstret++
	e.edge(in.Op, EdgeRetire)
}

// retireJump counts a retired control transfer that set PC itself.
func (e *Executor) retireJump(op isa.Op, taken bool) {
	e.CPU.Minstret++
	if taken {
		e.edge(op, EdgeBranchTaken)
	} else {
		e.edge(op, EdgeBranchNot)
	}
}

// targetAlign returns the required alignment mask for jump targets.
func (e *Executor) targetAlign() uint32 {
	if e.CPU.Cfg.Has(isa.ExtC) {
		return 1
	}
	return 3
}

func (e *Executor) jump(in *isa.Inst, target, link uint32) {
	h := e.CPU
	if target&e.targetAlign() != 0 {
		if e.Quirks.LinkBeforeAlignCheck {
			// The GRIFT defect: the link register is updated although the
			// jump raises the misaligned-fetch exception.
			h.WriteX(in.Rd, link)
		}
		e.trap(in.Op, hart.CauseMisalignedFetch, target)
		return
	}
	h.WriteX(in.Rd, link)
	h.PC = target
	e.retireJump(in.Op, true)
}

func (e *Executor) branch(in *isa.Inst, taken bool) {
	h := e.CPU
	if !taken {
		h.PC += uint32(in.Size)
		h.Minstret++
		e.edge(in.Op, EdgeBranchNot)
		return
	}
	target := h.PC + uint32(in.Imm)
	if target&e.targetAlign() != 0 {
		e.trap(in.Op, hart.CauseMisalignedFetch, target)
		return
	}
	h.PC = target
	e.retireJump(in.Op, true)
}

// load performs a data load of size bytes at x[rs1]+imm (or x[rs1] for
// atomics); ok is false if a trap was taken.
func (e *Executor) load(in *isa.Inst, rs1 uint32, size uint32) (uint64, bool) {
	addr := rs1 + uint32(in.Imm)
	if e.TrapUnaligned && addr&(size-1) != 0 {
		e.trap(in.Op, hart.CauseMisalignedLoad, addr)
		return 0, false
	}
	v, ok := e.Mem.Load(addr, size)
	if !ok {
		e.trap(in.Op, hart.CauseLoadAccessFault, addr)
	}
	return v, ok
}

// store performs a data store; false means a trap was taken or the
// simulation halted.
func (e *Executor) store(in *isa.Inst, rs1 uint32, size uint32, v uint64) bool {
	addr := rs1 + uint32(in.Imm)
	if e.TrapUnaligned && addr&(size-1) != 0 {
		e.trap(in.Op, hart.CauseMisalignedStore, addr)
		return false
	}
	if addr == e.HaltAddr {
		e.Halted = true
		return false
	}
	if !e.Mem.Store(addr, size, v) {
		e.trap(in.Op, hart.CauseStoreAccessFault, addr)
		return false
	}
	return true
}

// storeWord is the SC.W store; returns true if the simulation halted.
func (e *Executor) storeWord(addr, v uint32) bool {
	if addr == e.HaltAddr {
		e.Halted = true
		return true
	}
	// Alignment and bounds were checked by the caller; a residual error
	// still traps defensively.
	if !e.Mem.Store(addr, 4, uint64(v)) {
		e.CPU.Trap(hart.CauseStoreAccessFault, addr)
		return true
	}
	return false
}

func (e *Executor) amo(in *isa.Inst, addr, src uint32) {
	h := e.CPU
	if addr&3 != 0 {
		e.trap(in.Op, hart.CauseMisalignedStore, addr)
		return
	}
	v64, ok := e.Mem.Load(addr, 4)
	if !ok {
		e.trap(in.Op, hart.CauseStoreAccessFault, addr)
		return
	}
	old := uint32(v64)
	var v uint32
	switch in.Op {
	case isa.OpAMOSWAPW:
		v = src
	case isa.OpAMOADDW:
		v = old + src
	case isa.OpAMOXORW:
		v = old ^ src
	case isa.OpAMOANDW:
		v = old & src
	case isa.OpAMOORW:
		v = old | src
	case isa.OpAMOMINW:
		v = old
		if int32(src) < int32(old) {
			v = src
		}
	case isa.OpAMOMAXW:
		v = old
		if int32(src) > int32(old) {
			v = src
		}
	case isa.OpAMOMINUW:
		v = min(old, src)
	default: // AMOMAXU
		v = max(old, src)
	}
	if addr == e.HaltAddr {
		e.Halted = true
		return
	}
	if !e.Mem.Store(addr, 4, uint64(v)) {
		e.trap(in.Op, hart.CauseStoreAccessFault, addr)
		return
	}
	h.WriteX(in.Rd, old)
	e.retire(in)
}

func (e *Executor) csrOp(in *isa.Inst, rs1 uint32) {
	h := e.CPU
	var wval uint32
	imm := in.Op == isa.OpCSRRWI || in.Op == isa.OpCSRRSI || in.Op == isa.OpCSRRCI
	if imm {
		wval = uint32(in.Imm)
	} else {
		wval = rs1
	}
	write := true
	switch in.Op {
	case isa.OpCSRRS, isa.OpCSRRC:
		write = in.Rs1 != 0
	case isa.OpCSRRSI, isa.OpCSRRCI:
		write = in.Imm != 0
	}
	readNeeded := true
	if (in.Op == isa.OpCSRRW || in.Op == isa.OpCSRRWI) && in.Rd == 0 {
		readNeeded = false
	}
	var old uint32
	if readNeeded || write && in.Op != isa.OpCSRRW && in.Op != isa.OpCSRRWI {
		v, err := h.ReadCSR(in.CSR)
		if err != nil {
			e.trap(in.Op, hart.CauseIllegalInstruction, in.Raw)
			return
		}
		old = v
	}
	if write {
		nv := wval
		switch in.Op {
		case isa.OpCSRRS, isa.OpCSRRSI:
			nv = old | wval
		case isa.OpCSRRC, isa.OpCSRRCI:
			nv = old &^ wval
		}
		if err := h.WriteCSR(in.CSR, nv); err != nil {
			e.trap(in.Op, hart.CauseIllegalInstruction, in.Raw)
			return
		}
	}
	h.WriteX(in.Rd, old)
	e.retire(in)
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// String renders executor state for debugging.
func (e *Executor) String() string {
	return fmt.Sprintf("exec{pc=%#08x halted=%v n=%d}", e.CPU.PC, e.Halted, e.InstCount)
}
