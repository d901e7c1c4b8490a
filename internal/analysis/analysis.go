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
	// feasible control-flow graph (meaningful when accepted; saturates at
	// 1<<31).
	Paths int
}

// Analysis is the result of analysing one bytestream: its instruction
// sites, the fixpoint register state at each, and the accept/drop
// verdict.
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

	g    cfg
	path []int32 // findCycle's search path, reserved at the n/2 bound
}

// maxPaths saturates the accepted-path count.
const maxPaths = 1 << 31

// Analyze discovers the bytestream's instruction sites, runs the
// fixpoint over the register lattice, and derives the verdict under the
// suite family's semantics. It never rejects for budget reasons: cost is
// linear in sites x registers per pass. trap=false selects the
// user-suite semantics; trap=true the trap-suite ones (see the mode
// overview in trapmode.go) — deliberate traps resume past the faulting
// word instead of ending the path, the forbidden set shrinks to
// TrapForbidden, and the memory discipline keeps only the clean-base
// store rule.
//
// The result replaces a's previous one: anything read from a before the
// call (EachInst, CleanAt, ...) describes the old stream only until
// this call starts. A zero Analysis is ready to use.
func (a *Analysis) Analyze(bs []byte, trap bool) {
	a.g.build(bs, trap)
	a.N = a.g.n
	if a.N == 0 {
		// Empty stream: execution falls straight off the end.
		a.Verdict = Verdict{Reason: ReasonNone, Paths: 1}
		return
	}
	v, back := a.g.solve()
	switch {
	case v.Reason != ReasonNone:
		a.Verdict = v
	case !back:
		// Every feasible edge points forward: no cycle, and offset order
		// is a topological order to count paths in.
		a.Verdict = Verdict{Reason: ReasonNone, Paths: a.g.countPaths()}
	default:
		if pc, looped := a.findCycle(); looped {
			a.Verdict = Verdict{Reason: ReasonLoop, PC: pc, Op: isa.OpIllegal}
		} else {
			a.Verdict = Verdict{Reason: ReasonNone, Paths: int(a.g.sites[0].paths)}
		}
	}
}

// solve runs the fixpoint as ascending passes over the sites. A pass
// visits each reachable site in offset order: it records the site's
// feasible successors under its in-state (a branch whose operands are
// known constants folds), checks the site for a violation, and joins the
// site's out-state into each successor's in-state. When every feasible
// edge points forward, offset order is a topological order, so one pass
// visits each site with its final state. A feasible back edge that
// changes an earlier site's in-state makes another pass; a site whose
// in-state did not change recomputes the same successors and violation,
// and its joins change nothing. The lattice has finite height (each
// register can only climb Bottom -> Const/Clean -> Dirty) and the
// transfers are monotone, so the passes end without any step budget.
//
// solve returns the first violation in offset order of the last pass
// (checks within a site ordered as the historical filter ordered them;
// ReasonNone when there is none) and whether a feasible back edge exists.
func (g *cfg) solve() (v Verdict, back bool) {
	g.sites[0].in = entryState()
	var tmp regState
	for again := true; again; {
		again, v = false, Verdict{}
		for i := range g.sites {
			nd := &g.sites[i]
			if nd.kind == kindNone || !nd.in.reach {
				continue
			}
			ts, nt := nd.feasibleTargets(&nd.in)
			nd.out, nd.nout = ts, uint8(nt)
			if v.Reason == ReasonNone {
				v = g.violation(nd)
			}
			if nt == 0 {
				continue // terminal
			}
			// A branch reads the state before the edge (and writes
			// nothing); every other node applies its effect before it.
			s := transfer(nd.inst, &nd.in, &tmp)
			for _, t := range ts[:nt] {
				tn := g.at(t)
				if tn == nil {
					continue // exit (t == n) or out of bounds: no propagation
				}
				if tn.in.joinInto(s) && t <= nd.pc {
					again = true
				}
				back = back || t <= nd.pc
			}
		}
	}
	return v, back
}

// violation returns the first violation at a reachable site under its
// in-state, in the historical filter's order: a straddling or forbidden
// instruction, then the memory discipline, then each out-of-bounds
// feasible successor (ReasonNone when there is none).
func (g *cfg) violation(nd *node) Verdict {
	switch nd.kind {
	case kindStraddle:
		return Verdict{Reason: ReasonStraddle, PC: nd.pc, Op: isa.OpIllegal}
	case kindForbidden:
		return Verdict{Reason: ReasonForbidden, PC: nd.pc, Op: nd.inst.Op}
	case kindExit, kindTrapExit:
		return Verdict{}
	}
	// Memory-access discipline against the joined state. User suite: the
	// base register must still hold the data-window address and the
	// immediate must be access-size aligned. Trap suite: faults are
	// desired (recorded) events, so dirty-base loads and unaligned
	// accesses pass; only stores (including SC and AMOs) keep the
	// clean-base rule — a wild store could overwrite the code, the
	// handler, or the signature itself.
	if info := nd.inst.Info(); info.Flags.Any(isa.FlagLoad | isa.FlagStore) {
		dirtyBase := nd.in.clean&(1<<nd.inst.Rs1) == 0
		switch {
		case g.trap:
			if info.Flags.Is(isa.FlagStore) && dirtyBase {
				return Verdict{Reason: ReasonDirtyAddress, PC: nd.pc, Op: nd.inst.Op}
			}
		case dirtyBase:
			return Verdict{Reason: ReasonDirtyAddress, PC: nd.pc, Op: nd.inst.Op}
		case info.MemSize > 1 && nd.inst.Imm&int32(info.MemSize-1) != 0:
			return Verdict{Reason: ReasonUnalignedImm, PC: nd.pc, Op: nd.inst.Op}
		}
	}
	// Feasible successors leaving [0, n] are out-of-bounds control flow
	// (t == n is the accepted fall-off-the-end exit).
	for _, t := range nd.out[:nd.nout] {
		if t < 0 || t > g.n {
			return Verdict{Reason: ReasonOutOfBounds, PC: t, Op: isa.OpIllegal}
		}
	}
	return Verdict{}
}

// DFS colours of findCycle.
const (
	white = iota // unvisited
	grey         // on the current search path
	black        // fully explored
)

// findCycle searches the feasible edges depth first from offset 0, in
// each site's successor order; an edge to a site on the current search
// path closes a potential loop, and that site's offset is returned.
// Without one, the feasible graph is acyclic and the search has counted
// each reachable site's paths as it finished the site, after all of its
// successors.
func (a *Analysis) findCycle() (int32, bool) {
	g := &a.g
	a.path = append(reserve(a.path, len(g.sites)), 0)
	g.sites[0].color = grey
	for len(a.path) > 0 {
		nd := &g.sites[a.path[len(a.path)-1]/2]
		if nd.next == nd.nout {
			nd.color = black
			nd.paths = g.sumPaths(nd)
			a.path = a.path[:len(a.path)-1]
			continue
		}
		t := nd.out[nd.next]
		nd.next++
		tn := g.at(t)
		if tn == nil {
			continue // exit edge
		}
		switch tn.color {
		case grey:
			return t, true
		case white:
			tn.color = grey
			a.path = append(a.path, t)
		}
	}
	return 0, false
}

// countPaths counts the paths from offset 0 to an exit over feasible
// edges that all point forward, in one descending sweep: each site's
// successors are counted before it. It preserves the historical filter's
// "accepted (N paths)" report.
func (g *cfg) countPaths() int {
	for i := len(g.sites) - 1; i >= 0; i-- {
		if nd := &g.sites[i]; nd.kind != kindNone && nd.in.reach {
			nd.paths = g.sumPaths(nd)
		}
	}
	return int(g.sites[0].paths)
}

// sumPaths is a reachable site's path count from its successors' counts,
// saturating at maxPaths: one path for an exit site, and per feasible
// successor its count, or one for falling off the end.
func (g *cfg) sumPaths(nd *node) int64 {
	var total int64
	if nd.kind == kindExit {
		total = 1
	}
	for _, t := range nd.out[:nd.nout] {
		if tn := g.at(t); tn != nil {
			total += tn.paths
		} else {
			total++ // fell off the end (t == n)
		}
		total = min(total, maxPaths)
	}
	return total
}

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
	return nd != nil && nd.in.reach
}

// CleanAt returns the bitmask of registers still holding the data-window
// address when execution reaches pc (0 when pc is not a reachable
// instruction site). Consumers use it to pick memory-access base
// registers that keep the stream filter-acceptable.
func (a *Analysis) CleanAt(pc int32) uint32 {
	if !a.Reachable(pc) {
		return 0
	}
	return a.g.at(pc).in.clean
}

// EachInst visits every discovered instruction site in ascending offset
// order (straddle sites are skipped: they have no decodable instruction).
func (a *Analysis) EachInst(fn func(pc int32, inst isa.Inst, reachable bool)) {
	for i := range a.g.sites {
		nd := &a.g.sites[i]
		if nd.kind == kindNone || nd.kind == kindStraddle {
			continue
		}
		fn(nd.pc, nd.inst, nd.in.reach)
	}
}
