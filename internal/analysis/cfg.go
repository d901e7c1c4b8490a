package analysis

import "rvnegtest/internal/isa"

// nodeKind classifies an instruction site for control-flow purposes.
type nodeKind uint8

const (
	// kindNone: no instruction site starts at this offset.
	kindNone nodeKind = iota
	// kindFall: exactly one successor, the next instruction (pc+size).
	kindFall
	// kindJump: unconditional static jump (JAL), successor pc+imm.
	kindJump
	// kindBranch: conditional branch, successors pc+size and pc+imm
	// (folded to one by the analysis when the outcome is static).
	kindBranch
	// kindExit: the path ends deterministically here (illegal encoding or
	// ECALL — both trap into the template's handler, which ends the test).
	kindExit
	// kindForbidden: a forbidden instruction; reachable ⇒ drop. No
	// successors are modelled (the stream is rejected anyway, and JALR-like
	// members have no static successor at all).
	kindForbidden
	// kindStraddle: a 32-bit encoding whose upper half lies beyond the
	// bytestream; reachable ⇒ drop.
	kindStraddle
	// kindTrapExit (trap mode only): the instruction traps deterministically
	// (illegal encoding, ECALL, EBREAK); the recording handler resumes
	// execution at (pc &^ 3) + 4, the single modelled successor.
	kindTrapExit
)

// node is one decoded instruction site. Distinct sites may overlap in the
// byte stream (a branch into the middle of a 32-bit word starts a second,
// overlapping instruction stream); the analysis models each site
// separately at halfword granularity.
type node struct {
	pc   int32
	inst isa.Inst
	kind nodeKind
	// trap records the analysis mode the node was decoded under; in trap
	// mode every non-terminal node carries a conservative trap-resume edge
	// (see resume).
	trap bool
	// succs[:nsucc] are the node's static successor offsets
	// (staticTargets), recorded once by decodeNode.
	succs [3]int32
	nsucc uint8
	// out[:nout] are the node's feasible successors under in, recorded
	// by the pass that last visited it (reachable sites only).
	out  [3]int32
	nout uint8
	// color and next are findCycle's per-site search state; paths is the
	// number of feasible paths from the site to an exit (countPaths).
	color, next uint8
	paths       int64
	// in is the join of the states the feasible edges into the site
	// carry: bottom (in.reach false) until one does. A reachable site's
	// clean mask is in.clean.
	in regState
}

// resume is the offset where the trap template's recording handler lands
// after a fault at this node: mepc is masked to the enclosing word and
// advanced one word ((pc &^ 3) + 4). The result is always strictly greater
// than pc and never exceeds the padded length, so resume edges are forward
// and in-bounds by construction.
func (nd *node) resume() int32 { return (nd.pc &^ 3) + 4 }

// addResume appends the trap-resume edge to a successor set in trap mode,
// deduplicating against existing targets (for word-aligned 32-bit
// instructions and for compressed instructions in the upper halfword the
// resume offset coincides with the fall-through, so a straight-line site
// keeps a single successor). The exhaustive oracle applies the same dedup
// rule, which keeps the analysis's path counts bounded by the
// enumerator's.
func (nd *node) addResume(ts [3]int32, n int) ([3]int32, int) {
	if !nd.trap || nd.kind == kindTrapExit || nd.terminal() {
		return ts, n
	}
	r := nd.resume()
	for _, t := range ts[:n] {
		if t == r {
			return ts, n
		}
	}
	ts[n] = r
	return ts, n + 1
}

// staticTargets computes the node's static successor offsets, ignoring
// feasibility, for decodeNode to record in succs. Targets may lie
// outside [0, n] (bounds are a reachability check, not a decode error)
// and n itself means "fall off the end" (accepted exit).
func (nd *node) staticTargets() (ts [3]int32, n int) {
	switch nd.kind {
	case kindFall:
		ts[0] = nd.pc + int32(nd.inst.Size)
		n = 1
	case kindJump:
		ts[0] = nd.pc + nd.inst.Imm
		n = 1
	case kindBranch:
		ts[0] = nd.pc + int32(nd.inst.Size)
		ts[1] = nd.pc + nd.inst.Imm
		n = 2
	case kindTrapExit:
		ts[0] = nd.resume()
		return ts, 1
	default:
		return ts, 0
	}
	return nd.addResume(ts, n)
}

// feasibleTargets returns the successor offsets the analysis considers
// live given the node's in-state: a branch whose operands are known
// constants folds to a single unconditional edge. In trap mode the
// conservative resume edge stays attached even to a folded branch (the
// fold decides the branch outcome, not whether the taken-side fetch can
// fault).
func (nd *node) feasibleTargets(s *regState) ([3]int32, int) {
	if nd.kind == kindBranch {
		if taken, folded := branchOutcome(nd.inst, s); folded {
			var ts [3]int32
			if taken {
				ts[0] = nd.pc + nd.inst.Imm
			} else {
				ts[0] = nd.pc + int32(nd.inst.Size)
			}
			return nd.addResume(ts, 1)
		}
	}
	return nd.succs, int(nd.nsucc)
}

// terminal reports whether the node ends its path unconditionally (no
// modelled successors).
func (nd *node) terminal() bool {
	return nd.kind == kindExit || nd.kind == kindForbidden || nd.kind == kindStraddle
}

// cfg is the set of instruction sites of the padded bytestream, each with
// its static successors: the control-flow graph at halfword granularity.
// Its slices are reused by the next build (see Analysis.Analyze).
type cfg struct {
	n      int32   // padded length
	trap   bool    // trap-suite analysis mode
	padded []byte  // zero-padded copy of the bytestream
	sites  []node  // indexed pc/2; kindNone where no instruction starts
	work   []int32 // discovery worklist
}

// reserve returns s emptied, with capacity at least c: s's own array
// when it is large enough, otherwise a new one. The array keeps stale
// entries beyond the length, so callers that reslice past it reset or
// overwrite what they expose.
func reserve[T any](s []T, c int) []T {
	if cap(s) < c {
		return make([]T, 0, c)
	}
	return s[:0]
}

// at returns the instruction site at offset pc, or nil when none starts
// there.
func (g *cfg) at(pc int32) *node {
	if pc < 0 || pc >= g.n {
		return nil
	}
	if nd := &g.sites[pc/2]; nd.kind != kindNone {
		return nd
	}
	return nil
}

// decodeNode decodes the instruction site at pc into its slot,
// classifies it under the graph's analysis mode and records its static
// successors.
func (g *cfg) decodeNode(pc int32) {
	nd := &g.sites[pc/2]
	*nd = node{pc: pc, trap: g.trap}
	lo := uint32(g.padded[pc]) | uint32(g.padded[pc+1])<<8
	if lo&3 == 3 {
		if pc+4 > g.n {
			nd.kind = kindStraddle
			return // no successors
		}
		word := lo | uint32(g.padded[pc+2])<<16 | uint32(g.padded[pc+3])<<24
		nd.inst = isa.Ref.Decode32(word)
	} else {
		nd.inst = isa.Ref.DecodeC(uint16(lo))
	}
	info := nd.inst.Info()
	switch {
	case info == nil:
		// Illegal encoding: a deterministic exception. In the user suite the
		// handler ends the test; in the trap suite it records and resumes.
		nd.kind = exitKind(g.trap)
	case g.trap:
		// Trap mode: only the instructions that escape the recording
		// handler's control stay forbidden; deliberate trappers become
		// resuming trap exits, and everything else (CSR ops, SFENCE.VMA)
		// executes as a plain instruction.
		switch {
		case TrapForbidden(nd.inst):
			nd.kind = kindForbidden
		case nd.inst.Op == isa.OpECALL || nd.inst.Op == isa.OpEBREAK:
			nd.kind = kindTrapExit
		case nd.inst.Op == isa.OpJAL:
			nd.kind = kindJump
		case info.Flags.Is(isa.FlagBranch):
			nd.kind = kindBranch
		default:
			nd.kind = kindFall
		}
	case info.Flags.Is(isa.FlagForbidden):
		nd.kind = kindForbidden
	case nd.inst.Op == isa.OpECALL:
		// Deterministic trap into the handler: path ends.
		nd.kind = kindExit
	case nd.inst.Op == isa.OpJAL:
		nd.kind = kindJump
	case info.Flags.Is(isa.FlagBranch):
		nd.kind = kindBranch
	default:
		nd.kind = kindFall
	}
	ts, n := nd.staticTargets()
	nd.succs, nd.nsucc = ts, uint8(n)
}

// exitKind maps a deterministic trap site to its mode-dependent kind.
func exitKind(trap bool) nodeKind {
	if trap {
		return kindTrapExit
	}
	return kindExit
}

// build discovers every instruction site statically reachable from
// offset 0, following all edges, feasible or not. bs is the raw
// bytestream; it is padded to a whole word with zero bytes, as the
// template's injection area does. Every slice of an earlier build is
// reset first, an empty stream's included, so nothing of the previous
// stream stays visible.
func (g *cfg) build(bs []byte, trap bool) {
	n := int32(len(bs)+3) &^ 3
	g.n = n
	g.trap = trap
	padded := reserve(g.padded, int(n))[:n]
	clear(padded[copy(padded, bs):])
	g.padded = padded
	half := int(n / 2)
	g.sites = reserve(g.sites, half)[:half]
	for i := range g.sites {
		g.sites[i].kind = kindNone // decodeNode overwrites the rest
	}
	if n == 0 {
		return
	}

	// Discovery: worklist over instruction offsets. Branch/jump offsets
	// are always even, so sites live on halfword boundaries, and each is
	// pushed once.
	work := append(reserve(g.work, half), 0)
	g.decodeNode(0)
	for len(work) > 0 {
		nd := &g.sites[work[len(work)-1]/2]
		work = work[:len(work)-1]
		for _, t := range nd.succs[:nd.nsucc] {
			if t < 0 || t >= n || g.sites[t/2].kind != kindNone {
				continue // out of range (checked later) or already decoded
			}
			g.decodeNode(t)
			work = append(work, t)
		}
	}
	g.work = work
}
