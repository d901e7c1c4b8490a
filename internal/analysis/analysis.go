package analysis

import "rvnegtest/internal/isa"

// Verdict is the engine's decision for one bytestream, mirroring the
// filter's historical result shape.
type Verdict struct {
	// Reason is ReasonNone when the bytestream is accepted.
	Reason Reason
	// PC is the local offset of the instruction that caused a drop (for
	// ReasonOutOfBounds: the offending target offset).
	PC int32
	// Op is the operation at that offset (when meaningful).
	Op isa.Op
	// Paths is the number of accepted control-flow paths through the
	// feasible CFG (meaningful when accepted; saturates at 1<<31).
	Paths int
}

// Analysis is the result of analysing one bytestream: the basic-block
// CFG, the fixpoint register states, and the accept/drop verdict.
//
// The zero value is ready for Analyze, which re-analyses in place and
// keeps every buffer of earlier calls, so a long-lived Analysis stops
// allocating once it has seen its longest stream. Each call replaces
// the previous result entirely. An Analysis is not safe for concurrent
// use.
type Analysis struct {
	// N is the padded bytestream length.
	N int32
	// Verdict is the filter decision.
	Verdict Verdict

	g cfg

	// Scratch of fixpoint (inWork, work), findCycle (dfs, stack) and
	// countPaths (memo), reserved at the cfg arenas' n/2 bound.
	inWork []bool
	work   []*block
	dfs    []dfsEntry
	stack  []int32
	memo   []int64
}

// maxPaths saturates the accepted-path count.
const maxPaths = 1 << 31

// AnalyzeMode builds the CFG for the bytestream, runs the worklist
// fixpoint over the register lattice, and derives the verdict under the
// suite family's semantics. It never rejects for budget reasons: cost is
// linear in blocks x registers. trap=false selects the user-suite
// semantics; trap=true the trap-suite ones (see the mode overview in
// trapmode.go) — deliberate traps resume past the faulting word instead
// of ending the path, the forbidden set shrinks to TrapForbidden, and the
// memory discipline keeps only the clean-base store rule.
func AnalyzeMode(bs []byte, trap bool) *Analysis {
	a := new(Analysis)
	a.Analyze(bs, trap)
	return a
}

// Analyze re-analyses a with the bytestream bs under the suite family
// semantics AnalyzeMode describes. The result replaces a's previous one:
// anything read from a before the call (Blocks, EachInst, CleanAt, ...)
// describes the old stream only until this call starts.
func (a *Analysis) Analyze(bs []byte, trap bool) {
	a.g.build(bs, trap)
	a.N = a.g.n
	if a.N == 0 {
		// Empty stream: execution falls straight off the end.
		a.Verdict = Verdict{Reason: ReasonNone, Paths: 1}
		return
	}
	a.fixpoint()
	a.deriveVerdict()
}

// fixpoint runs the worklist iteration: block in-states are joined at
// merge points and propagated through block transfer functions until
// stable. The lattice has finite height (each register can only climb
// Bottom -> Const/Clean -> Dirty) and transfer functions are monotone, so
// termination is guaranteed without any step budget.
func (a *Analysis) fixpoint() {
	g := &a.g
	entry := g.at(0).blk
	entry.in = entryState()

	inWork := reserve(a.inWork, len(g.sites))[:len(g.blocks)]
	clear(inWork)
	a.inWork = inWork
	work := append(reserve(a.work, len(g.sites)), entry)
	inWork[entry.id] = true
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b.id] = false

		// Transfer through the chain; only the last node moves control.
		s := b.in
		for _, nd := range b.nodes[:len(b.nodes)-1] {
			transfer(nd.inst, &s)
		}
		// A branch reads the state before the edge (and writes nothing);
		// every other node applies its effect before the edge.
		last := b.last()
		ts, nt := last.feasibleTargets(&s)
		if nt == 0 {
			continue // terminal
		}
		transfer(last.inst, &s)
		for _, t := range ts[:nt] {
			tn := g.at(t)
			if tn == nil {
				continue // exit (t == n) or out of bounds: no propagation
			}
			if tn.blk.in.joinInto(&s) && !inWork[tn.blk.id] {
				inWork[tn.blk.id] = true
				work = append(work, tn.blk)
			}
		}
	}
	a.work = work
}

// deriveVerdict scans the stabilized CFG for violations in ascending PC
// order (first hit wins, checks within a site ordered as the historical
// filter ordered them), recording every reachable block's feasible
// successors on the way, then runs cycle detection and path counting
// over the feasible subgraph.
func (a *Analysis) deriveVerdict() {
	g := &a.g
	// Per-node final in-states: walk each reachable block once, recording
	// the clean masks for consumers and the block's feasible successors,
	// and checking node-level violations.
	type violation struct {
		at     int32 // scan key: the site where the violation is observed
		reason Reason
		pc     int32 // reported offset
		op     isa.Op
	}
	var best violation
	found := false
	consider := func(v violation) {
		if !found || v.at < best.at {
			best, found = v, true
		}
	}

	for bi := range g.blocks {
		b := &g.blocks[bi]
		if !b.in.reach {
			continue
		}
		s := b.in
		for i, nd := range b.nodes {
			nd.cleanMask = s.clean
			last := i == len(b.nodes)-1
			if last {
				ts, nt := nd.feasibleTargets(&s)
				b.succs, b.nsucc = ts, uint8(nt)
			}
			switch nd.kind {
			case kindStraddle:
				consider(violation{nd.pc, ReasonStraddle, nd.pc, isa.OpIllegal})
				continue
			case kindForbidden:
				consider(violation{nd.pc, ReasonForbidden, nd.pc, nd.inst.Op})
				continue
			case kindExit, kindTrapExit:
				continue
			}
			info := nd.inst.Info()
			// Memory-access discipline against the joined state. User suite:
			// the base register must still hold the data-window address and
			// the immediate must be access-size aligned. Trap suite: faults
			// are desired (recorded) events, so dirty-base loads and
			// unaligned accesses pass; only stores (including SC and AMOs)
			// keep the clean-base rule — a wild store could overwrite the
			// code, the handler, or the signature itself.
			if info.Flags.Any(isa.FlagLoad | isa.FlagStore) {
				dirtyBase := s.get(nd.inst.Rs1).k != vClean
				if g.trap {
					if info.Flags.Is(isa.FlagStore) && dirtyBase {
						consider(violation{nd.pc, ReasonDirtyAddress, nd.pc, nd.inst.Op})
					}
				} else if dirtyBase {
					consider(violation{nd.pc, ReasonDirtyAddress, nd.pc, nd.inst.Op})
				} else if info.MemSize > 1 && nd.inst.Imm&int32(info.MemSize-1) != 0 {
					consider(violation{nd.pc, ReasonUnalignedImm, nd.pc, nd.inst.Op})
				}
			}
			// Feasible successors leaving [0, n] are out-of-bounds control
			// flow (t == n is the accepted fall-off-the-end exit).
			if last {
				for _, t := range b.succs[:b.nsucc] {
					if t < 0 || t > g.n {
						consider(violation{nd.pc, ReasonOutOfBounds, t, isa.OpIllegal})
					}
				}
			}
			transfer(nd.inst, &s)
		}
	}
	if found {
		a.Verdict = Verdict{Reason: best.reason, PC: best.pc, Op: best.op}
		return
	}

	// Loop detection: any cycle among feasible edges of reachable blocks.
	if pc, looped := a.findCycle(); looped {
		a.Verdict = Verdict{Reason: ReasonLoop, PC: pc, Op: isa.OpIllegal}
		return
	}

	a.Verdict = Verdict{Reason: ReasonNone, Paths: a.countPaths()}
}

// DFS colours of findCycle.
const (
	white = iota // unvisited
	grey         // on the current DFS path
	black        // fully explored
)

// dfsEntry is findCycle's per-block bookkeeping.
type dfsEntry struct {
	next  uint8 // next successor index to explore
	color uint8
}

// findCycle performs an iterative DFS over the feasible edges between
// reachable blocks that deriveVerdict recorded; a back edge to a block on
// the current DFS path is a potential loop. Returns the offset of the
// revisited block head.
func (a *Analysis) findCycle() (int32, bool) {
	g := &a.g
	// Per-block DFS bookkeeping lives in one slice; the stack holds block
	// ids.
	st := reserve(a.dfs, len(g.sites))[:len(g.blocks)]
	clear(st)
	a.dfs = st
	a.stack = reserve(a.stack, len(g.sites))
	push := func(b *block) {
		st[b.id].color = grey
		a.stack = append(a.stack, int32(b.id))
	}
	entry := g.at(0).blk
	if !entry.in.reach {
		return 0, false
	}
	push(entry)
	for len(a.stack) > 0 {
		id := a.stack[len(a.stack)-1]
		e, b := &st[id], &g.blocks[id]
		if e.next == b.nsucc {
			e.color = black
			a.stack = a.stack[:len(a.stack)-1]
			continue
		}
		t := b.succs[e.next]
		e.next++
		tn := g.at(t)
		if tn == nil {
			continue // exit edge
		}
		switch st[tn.blk.id].color {
		case grey:
			return tn.blk.head().pc, true
		case white:
			push(tn.blk)
		}
	}
	return 0, false
}

// countPaths counts root-to-exit paths through the feasible DAG
// (deriveVerdict established acyclicity first), saturating at maxPaths.
// This preserves the historical filter's "accepted (N paths)" report.
func (a *Analysis) countPaths() int {
	g := &a.g
	memo := reserve(a.memo, len(g.sites))[:len(g.blocks)]
	for i := range memo {
		memo[i] = -1
	}
	a.memo = memo
	return int(a.countFrom(g.at(0).blk, memo))
}

// countFrom is countPaths' memoized recursion over feasible edges.
func (a *Analysis) countFrom(b *block, memo []int64) int64 {
	if memo[b.id] >= 0 {
		return memo[b.id]
	}
	memo[b.id] = 0 // cycle guard; unreachable given acyclicity
	var total int64
	if b.last().kind == kindExit {
		total = 1
	}
	for _, t := range b.succs[:b.nsucc] {
		if tn := a.g.at(t); tn != nil {
			total += a.countFrom(tn.blk, memo)
		} else {
			total++ // fell off the end (t == n)
		}
		if total > maxPaths {
			total = maxPaths
		}
	}
	memo[b.id] = total
	return total
}

// Accepted reports whether the bytestream passed every check.
func (a *Analysis) Accepted() bool { return a.Verdict.Reason == ReasonNone }

// InstAt returns the decoded instruction starting at offset pc, if the
// CFG discovered an instruction site there.
func (a *Analysis) InstAt(pc int32) (isa.Inst, bool) {
	if nd := a.g.at(pc); nd != nil && nd.kind != kindStraddle {
		return nd.inst, true
	}
	return isa.Inst{}, false
}

// Reachable reports whether the instruction site at pc is on some
// feasible path from offset 0.
func (a *Analysis) Reachable(pc int32) bool {
	nd := a.g.at(pc)
	return nd != nil && nd.blk != nil && nd.blk.in.reach
}

// CleanAt returns the bitmask of registers still holding the data-window
// address when execution reaches pc (0 when pc is not a reachable
// instruction site). Consumers use it to pick memory-access base
// registers that keep the stream filter-acceptable.
func (a *Analysis) CleanAt(pc int32) uint32 {
	if !a.Reachable(pc) {
		return 0
	}
	return a.g.at(pc).cleanMask
}

// EachInst visits every discovered instruction site in ascending offset
// order (straddle sites are skipped: they have no decodable instruction).
func (a *Analysis) EachInst(fn func(pc int32, inst isa.Inst, reachable bool)) {
	for _, nd := range a.g.sites {
		if nd == nil || nd.kind == kindStraddle {
			continue
		}
		fn(nd.pc, nd.inst, nd.blk != nil && nd.blk.in.reach)
	}
}

// BlockInfo describes one basic block of the constructed CFG (test and
// tooling introspection).
type BlockInfo struct {
	Start     int32   // offset of the first instruction
	End       int32   // offset one past the last instruction's encoding
	Insts     int     // number of instructions in the block
	Succs     []int32 // feasible successor offsets (N means "exit")
	Reachable bool
}

// Blocks returns the basic blocks in construction order (ascending head
// offset).
func (a *Analysis) Blocks() []BlockInfo {
	out := make([]BlockInfo, 0, len(a.g.blocks))
	for bi := range a.g.blocks {
		b := &a.g.blocks[bi]
		last := b.last()
		info := BlockInfo{
			Start:     b.head().pc,
			End:       last.pc + int32(encSize(last)),
			Insts:     len(b.nodes),
			Reachable: b.in.reach,
		}
		succs := last.succs[:last.nsucc]
		if b.in.reach {
			succs = b.succs[:b.nsucc]
		}
		info.Succs = append([]int32(nil), succs...)
		out = append(out, info)
	}
	return out
}

// encSize is the encoding size of a node in bytes (straddle sites occupy
// the remaining tail).
func encSize(nd *node) int {
	if nd.kind == kindStraddle {
		return 2
	}
	return int(nd.inst.Size)
}
