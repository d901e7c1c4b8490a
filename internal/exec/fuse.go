// Superblock fusion: straight-line runs of predecoded instructions are
// fused into a single block handler, so the per-instruction dispatch of
// Step (slot lookup, state check, indirect call) is paid once per block
// instead of once per instruction. The common computational operations
// additionally execute through inlined fast paths that skip the handler
// call entirely.
//
// Fusion is an execution-strategy overlay, never a semantic one: a fused
// run retires the same instructions, takes the same traps, reads and
// writes the same architectural state (including the cycle/instret
// counters, which are CSR-visible per step) and produces the same cache
// statistics as the equivalent sequence of scalar steps. Three rules
// keep that true:
//
//  1. Only the final instruction of a fused block may transfer control,
//     trap by design, or carry forbidden/system semantics. Every earlier
//     step is a plain legal instruction whose fall-through successor is
//     the next step.
//  2. Any step may still fail dynamically (FP disabled, access fault,
//     halt store, self-modifying store). Such a step executes through
//     its full scalar handler, and the fused run bails out right after
//     it; the scalar loop resumes at the architecturally correct PC.
//  3. Invalidation splits fusion (the invariant DESIGN.md §17 states):
//     every effective InvalidateRange bumps the cache generation, and a
//     fused run re-checks the generation after any step that could have
//     stored. A block whose head slot is invalidated loses its fused
//     handler until Reset restores the pristine image.
package exec

import (
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// Fused step kinds. fuGeneric runs the step through its scalar handler;
// the others are inlined fast paths for operations that dominate the
// generated harness code. Inlined kinds are chosen so that (absent a
// dynamic fault, which falls back to the handler) they cannot trap,
// halt, store, or leave PC anywhere but the fall-through successor.
const (
	fuGeneric uint8 = iota
	fuALUImm        // rd <- alu(x[rs1], imm)
	fuALUReg        // rd <- alu(x[rs1], x[rs2])
	fuConst         // rd <- imm (LUI, and AUIPC with pc folded in)
	fuLW            // rd <- mem32[x[rs1]+imm]
	fuSW            // mem32[x[rs1]+imm] <- x[rs2]
)

// ALU sub-operations for the inlined kinds. Shift amounts are masked to
// five bits; fuse-time classification guarantees immediate shifts with
// out-of-range amounts (possible under loose-decode quirks) stay on the
// generic path, where the scalar handler's unmasked shift applies.
const (
	aluAdd uint8 = iota
	aluSub
	aluSll
	aluSlt
	aluSltu
	aluXor
	aluSrl
	aluSra
	aluOr
	aluAnd
)

func aluEval(op uint8, a, b uint32) uint32 {
	switch op {
	case aluAdd:
		return a + b
	case aluSub:
		return a - b
	case aluSll:
		return a << (b & 31)
	case aluSlt:
		return b2u(int32(a) < int32(b))
	case aluSltu:
		return b2u(a < b)
	case aluXor:
		return a ^ b
	case aluSrl:
		return a >> (b & 31)
	case aluSra:
		return uint32(int32(a) >> (b & 31))
	case aluOr:
		return a | b
	default:
		return a & b
	}
}

// fusedStep is one instruction of a fused block with its dispatch
// decision precomputed. next is the fall-through PC after the step; a
// generic step that leaves PC elsewhere (taken branch, trap, stalling
// WFI) ends the fused run.
type fusedStep struct {
	kind uint8
	alu  uint8
	fp   bool // legal FP op: re-check FPEnabled at dispatch time
	rd   isa.Reg
	rs1  isa.Reg
	rs2  isa.Reg
	imm  int32
	next uint32
	fn   handlerFn
	inst isa.Inst
}

// fusedBlock is the fused handler for one straight-line block. Blocks
// are immutable after Fuse and shared across cache clones; all mutable
// state stays in the per-clone entry table (the blk pointer) and the
// generation counter.
type fusedBlock struct {
	pc    uint32 // head PC (diagnostics)
	steps []fusedStep
}

// fuseTable is the immutable slot-level index of a cache's fused blocks,
// shared across clones. owner maps every covered halfword slot to its
// block's head slot (-1 when unfused) — InvalidateRange uses it to split
// a block whose head lies before the invalidated range. heads holds the
// block of each head slot, so Reset can restore fused dispatch after the
// pristine image returns.
type fuseTable struct {
	owner []int32
	heads []*fusedBlock
}

// Fuse installs fused handlers for the given straight-line extents
// (byte offsets relative to the cache base, end-exclusive), typically
// produced by analysis.StraightLineExtents over the same code bytes.
// It must be called on a pristine cache (fresh from NewDecodeCache, or
// Reset with no prior Fuse); extents are hints and are re-validated
// against the cache's own entries, so a decoder-quirk divergence merely
// truncates a block. Returns the number of blocks installed. Clones
// made after Fuse share the fusion immutably.
func (c *DecodeCache) Fuse(extents [][2]int32) int {
	if c == nil || len(c.entries) == 0 {
		return 0
	}
	ft := &fuseTable{
		owner: make([]int32, len(c.entries)),
		heads: make([]*fusedBlock, len(c.entries)),
	}
	for i := range ft.owner {
		ft.owner[i] = -1
	}
	installed := 0
	for _, ex := range extents {
		start, end := ex[0], ex[1]
		if start < 0 || start&1 != 0 || start >= int32(c.span) {
			continue
		}
		if end > int32(c.span) {
			end = int32(c.span)
		}
		steps, size := c.buildSteps(start, end)
		if len(steps) < 2 {
			continue
		}
		head := start >> 1
		endSlot := (start + size) >> 1
		overlap := false
		for s := head; s < endSlot; s++ {
			if ft.owner[s] != -1 {
				overlap = true
				break
			}
		}
		if overlap {
			continue
		}
		blk := &fusedBlock{pc: c.base + uint32(start), steps: steps}
		for s := head; s < endSlot; s++ {
			ft.owner[s] = head
		}
		ft.heads[head] = blk
		c.entries[head].blk = blk
		installed++
	}
	c.fuse = ft
	return installed
}

// buildSteps walks the pristine entries from start, collecting fusable
// steps until the extent ends, an unfusable slot appears, or a block
// terminator (jump, branch, trap, forbidden/system op) is included as
// the final step. Returns the steps and the byte size they cover.
func (c *DecodeCache) buildSteps(start, end int32) ([]fusedStep, int32) {
	var steps []fusedStep
	off := start
	for off < end {
		ent := &c.entries[off>>1]
		if ent.dirty || ent.state != entryLegal {
			break
		}
		sz := int32(ent.inst.Size)
		if sz == 0 || off+sz > int32(c.span) {
			break
		}
		pc := c.base + uint32(off)
		steps = append(steps, makeStep(ent, pc))
		off += sz
		info := ent.inst.Info()
		if info.Flags.Any(isa.FlagJump | isa.FlagBranch | isa.FlagTrap | isa.FlagForbidden) {
			// Terminator: legal as the final step, never mid-block.
			break
		}
	}
	return steps, off - start
}

// makeStep classifies one legal entry into its fused dispatch kind. The
// inlined kinds replicate the corresponding scalar handlers exactly
// (handlers.go is the source of truth); anything not provably identical
// stays fuGeneric.
func makeStep(ent *cacheEntry, pc uint32) fusedStep {
	in := &ent.inst
	st := fusedStep{
		kind: fuGeneric,
		fp:   ent.fp,
		rd:   in.Rd,
		rs1:  in.Rs1,
		rs2:  in.Rs2,
		imm:  in.Imm,
		next: pc + uint32(in.Size),
		fn:   ent.fn,
		inst: *in,
	}
	switch in.Op {
	case isa.OpLUI:
		st.kind = fuConst
	case isa.OpAUIPC:
		st.kind = fuConst
		st.imm = int32(pc + uint32(in.Imm))
	case isa.OpADDI:
		st.kind, st.alu = fuALUImm, aluAdd
	case isa.OpSLTI:
		st.kind, st.alu = fuALUImm, aluSlt
	case isa.OpSLTIU:
		st.kind, st.alu = fuALUImm, aluSltu
	case isa.OpXORI:
		st.kind, st.alu = fuALUImm, aluXor
	case isa.OpORI:
		st.kind, st.alu = fuALUImm, aluOr
	case isa.OpANDI:
		st.kind, st.alu = fuALUImm, aluAnd
	case isa.OpSLLI:
		st.kind, st.alu = fuALUImm, aluSll
	case isa.OpSRLI:
		st.kind, st.alu = fuALUImm, aluSrl
	case isa.OpSRAI:
		st.kind, st.alu = fuALUImm, aluSra
	case isa.OpADD:
		st.kind, st.alu = fuALUReg, aluAdd
	case isa.OpSUB:
		st.kind, st.alu = fuALUReg, aluSub
	case isa.OpSLL:
		st.kind, st.alu = fuALUReg, aluSll
	case isa.OpSLT:
		st.kind, st.alu = fuALUReg, aluSlt
	case isa.OpSLTU:
		st.kind, st.alu = fuALUReg, aluSltu
	case isa.OpXOR:
		st.kind, st.alu = fuALUReg, aluXor
	case isa.OpSRL:
		st.kind, st.alu = fuALUReg, aluSrl
	case isa.OpSRA:
		st.kind, st.alu = fuALUReg, aluSra
	case isa.OpOR:
		st.kind, st.alu = fuALUReg, aluOr
	case isa.OpAND:
		st.kind, st.alu = fuALUReg, aluAnd
	case isa.OpLW:
		st.kind = fuLW
	case isa.OpSW:
		st.kind = fuSW
	}
	if st.kind == fuALUImm && (st.alu == aluSll || st.alu == aluSrl || st.alu == aluSra) &&
		uint32(in.Imm) > 31 {
		// Loose decoders may accept out-of-range shift amounts; the
		// scalar handler shifts unmasked, so keep the handler.
		st.kind = fuGeneric
	}
	return st
}

// runFused executes up to budget steps of a fused block. The caller has
// verified the block's head slot is valid and the budget is at least 2
// (a budget-1 call would gain nothing over Step). Per-step architectural
// effects (Mcycle, Minstret, register/memory writes, traps) happen in
// scalar order; only the executor's InstCount and the cache hit counters
// are folded in at the end, since neither is architecturally visible
// mid-run.
func (e *Executor) runFused(c *DecodeCache, b *fusedBlock, budget uint64) {
	h := e.CPU
	gen := c.gen
	steps := b.steps
	n := uint64(len(steps))
	if budget < n {
		n = budget
	}
	var k uint64
	if e.Hook != nil {
		// Hooked runs (coverage collection) need the per-step OnInst and
		// OnEdge callbacks, so every step takes the full handler path.
		for i := uint64(0); i < n; i++ {
			k++
			h.Mcycle++
			if !e.fusedSlow(c, &steps[i], gen) {
				break
			}
		}
	} else {
		for i := uint64(0); i < n; i++ {
			st := &steps[i]
			k++
			h.Mcycle++
			ok := true
			switch st.kind {
			case fuALUImm:
				h.WriteX(st.rd, aluEval(st.alu, h.ReadX(st.rs1), uint32(st.imm)))
				h.PC = st.next
				h.Minstret++
			case fuALUReg:
				h.WriteX(st.rd, aluEval(st.alu, h.ReadX(st.rs1), h.ReadX(st.rs2)))
				h.PC = st.next
				h.Minstret++
			case fuConst:
				h.WriteX(st.rd, uint32(st.imm))
				h.PC = st.next
				h.Minstret++
			case fuLW:
				addr := h.ReadX(st.rs1) + uint32(st.imm)
				if !e.TrapUnaligned || addr&3 == 0 {
					if v, err := e.Mem.Read32(addr); err == nil {
						h.WriteX(st.rd, v)
						h.PC = st.next
						h.Minstret++
						break
					}
				}
				ok = e.fusedSlow(c, st, gen)
			case fuSW:
				// Inline only the store that provably cannot trap, halt,
				// or touch the cached code range (the overlap test mirrors
				// InvalidateRange's early-out, so skipping the call also
				// skips zero counter increments, exactly like scalar).
				addr := h.ReadX(st.rs1) + uint32(st.imm)
				if (!e.TrapUnaligned || addr&3 == 0) && addr != e.HaltAddr &&
					(addr+4 <= c.base || addr >= c.base+c.span) {
					if err := e.Mem.Write32(addr, h.ReadX(st.rs2)); err == nil {
						h.PC = st.next
						h.Minstret++
						break
					}
					// The write failed after the bounds test raced nothing:
					// impossible to reach retire; fall through to the
					// handler, which re-runs the store and takes the trap.
				}
				ok = e.fusedSlow(c, st, gen)
			default:
				ok = e.fusedSlow(c, st, gen)
			}
			if !ok {
				break
			}
		}
	}
	e.InstCount += k
	c.stats.Hits += k
	c.stats.Fused += k
}

// fusedSlow executes one fused step through its full scalar handler and
// reports whether the fused run may continue: the executor is still
// live, the PC is the fall-through successor, and no store invalidated
// cached slots (which may include this very block's tail).
func (e *Executor) fusedSlow(c *DecodeCache, st *fusedStep, gen uint64) bool {
	if st.fp && !e.CPU.FPEnabled() {
		e.trap(st.inst.Op, hart.CauseIllegalInstruction, st.inst.Raw)
		return false
	}
	// Dispatch from the scratch copy (see Executor.cur): hooks and
	// handlers must not alias the fused block, which clones share.
	e.cur = st.inst
	if e.Hook != nil {
		e.Hook.OnInst(&e.cur, e.CPU)
	}
	st.fn(e, &e.cur)
	return !e.Halted && e.CPU.PC == st.next && c.gen == gen
}
