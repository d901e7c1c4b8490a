package analysis

import "rvnegtest/internal/isa"

// nodeKind classifies an instruction site for control-flow purposes.
type nodeKind uint8

const (
	// kindFall: exactly one successor, the next instruction (pc+size).
	kindFall nodeKind = iota
	// kindJump: unconditional static jump (JAL), successor pc+imm.
	kindJump
	// kindBranch: conditional branch, successors pc+size and pc+imm
	// (folded to one by the fixpoint when the outcome is static).
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
// overlapping instruction stream); the CFG models each site separately at
// halfword granularity.
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
	// blk is the basic block the node belongs to.
	blk *block
	// cleanMask is the bitmask of Clean registers in the node's final
	// in-state, filled by the post-fixpoint walk (mutator guidance).
	cleanMask uint32
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
// resume offset coincides with the fall-through, so straight-line code
// keeps single-successor blocks). The exhaustive oracle applies the same
// dedup rule, which keeps the fixpoint engine's path counts bounded by the
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

// feasibleTargets returns the successor offsets the fixpoint considers
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

// block is one basic block: a maximal straight-line chain of nodes. Only
// the last node may transfer control; in is the fixpoint's joined
// abstract state at the block head. succs[:nsucc] are the last node's
// feasible successors under the final in-state, recorded by
// deriveVerdict for every reachable block.
type block struct {
	id    int
	nodes []*node
	in    regState
	succs [3]int32
	nsucc uint8
}

func (b *block) head() *node { return b.nodes[0] }
func (b *block) last() *node { return b.nodes[len(b.nodes)-1] }

// cfg is the control-flow graph over the padded bytestream. Its slices
// are reused by the next build (see Analysis.Analyze).
type cfg struct {
	n      int32   // padded length
	trap   bool    // trap-suite analysis mode
	buf    []byte  // padded stream, then the leader and predecessor maps
	padded []byte  // zero-padded copy of the bytestream (window of buf)
	sites  []*node // indexed pc/2; nil where no instruction starts
	work   []int32 // discovery worklist

	// store, blocks and chain are fixed-capacity arenas (site count is at
	// most n/2, leader count at most the site count, and every node joins
	// exactly one block's chain), so append never reallocates and interior
	// pointers stay valid: sites point into store, node.blk into blocks,
	// block.nodes are windows into chain. A reused arena must therefore
	// reach the capacity a build needs before that build's first append
	// into it. build reserves all three, like every other buffer of an
	// Analysis, at the n/2 bound, so one call on a stream of the longest
	// length sizes them all for good. blocks is addressed by index ==
	// block id.
	store  []node
	blocks []block
	chain  []*node
}

// reserve returns s emptied, with capacity at least c: s's own array
// when it is large enough, otherwise a new one. The array keeps stale
// entries beyond the length, so callers that reslice past it clear or
// overwrite what they expose.
func reserve[T any](s []T, c int) []T {
	if cap(s) < c {
		return make([]T, 0, c)
	}
	return s[:0]
}

func (g *cfg) at(pc int32) *node {
	if pc < 0 || pc >= g.n {
		return nil
	}
	return g.sites[pc/2]
}

// decodeNode decodes the instruction site at pc, classifies it under
// the graph's analysis mode and records its static successors.
func (g *cfg) decodeNode(pc int32) *node {
	g.store = append(g.store, node{pc: pc, trap: g.trap})
	nd := &g.store[len(g.store)-1]
	lo := uint32(g.padded[pc]) | uint32(g.padded[pc+1])<<8
	if lo&3 == 3 {
		if pc+4 > g.n {
			nd.kind = kindStraddle
			return nd // no successors
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
	return nd
}

// exitKind maps a deterministic trap site to its mode-dependent kind.
func exitKind(trap bool) nodeKind {
	if trap {
		return kindTrapExit
	}
	return kindExit
}

// build discovers every instruction site statically reachable from
// offset 0 (following all edges, feasible or not) and partitions the
// sites into basic blocks. bs is the raw bytestream; it is padded to a
// whole word with zero bytes, as the template's injection area does.
// Every slice of an earlier build is reset first, an empty stream's
// included, so nothing of the previous stream stays visible.
func (g *cfg) build(bs []byte, trap bool) {
	n := int32(len(bs)+3) &^ 3
	g.n = n
	g.trap = trap
	// One buffer serves the padded stream and the two per-halfword
	// leader/predecessor byte maps used below.
	buf := reserve(g.buf, int(2*n))[:2*n]
	clear(buf)
	g.buf = buf
	g.padded = buf[:n]
	copy(g.padded, bs)
	half := int(n / 2)
	g.sites = reserve(g.sites, half)[:half]
	clear(g.sites)
	g.store = reserve(g.store, half)
	g.blocks = reserve(g.blocks, half)
	g.chain = reserve(g.chain, half)
	if n == 0 {
		return
	}

	// Discovery: worklist over instruction offsets. Branch/jump offsets
	// are always even, so sites live on halfword boundaries, and each is
	// pushed once.
	work := append(reserve(g.work, half), 0)
	g.sites[0] = g.decodeNode(0)
	for len(work) > 0 {
		pc := work[len(work)-1]
		work = work[:len(work)-1]
		nd := g.sites[pc/2]
		for _, t := range nd.succs[:nd.nsucc] {
			if t < 0 || t >= n || g.sites[t/2] != nil {
				continue // out of range (checked later) or already decoded
			}
			g.sites[t/2] = g.decodeNode(t)
			work = append(work, t)
		}
	}
	g.work = work

	// Leader identification: offset 0, every target of a node that
	// transfers control (branch, jump, trap exit, or any node whose
	// trap-resume edge forks off the fall-through), and every site with
	// more than one static predecessor.
	leader := buf[n : n+n/2]
	preds := buf[n+n/2:]
	leader[0] = 1
	for i := range g.store {
		nd := &g.store[i]
		transfers := nd.kind != kindFall || nd.nsucc > 1
		for _, t := range nd.succs[:nd.nsucc] {
			if t < 0 || t >= n {
				continue
			}
			if transfers {
				leader[t/2] = 1
			}
			if preds[t/2] < 2 {
				preds[t/2]++
			}
		}
	}
	for i, p := range preds {
		if p > 1 {
			leader[i] = 1
		}
	}

	// Chain formation: from each leader, follow single fall-through
	// successors until a terminator, a control transfer, or the next
	// leader.
	for i, nd := range g.sites {
		if nd == nil || leader[i] == 0 {
			continue
		}
		g.blocks = append(g.blocks, block{id: len(g.blocks)})
		b := &g.blocks[len(g.blocks)-1]
		start := len(g.chain)
		for {
			nd.blk = b
			g.chain = append(g.chain, nd)
			if nd.kind != kindFall {
				break
			}
			if nd.nsucc != 1 {
				break // trap-resume fork: the node terminates its block
			}
			t := nd.succs[0]
			if t >= g.n || g.sites[t/2] == nil || leader[t/2] != 0 {
				break
			}
			nd = g.sites[t/2]
		}
		b.nodes = g.chain[start:len(g.chain):len(g.chain)]
	}
}
