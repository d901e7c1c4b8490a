// Package filter implements the static-analysis filter of the paper
// (section IV-C): an abstract interpretation of a fuzzer-generated
// bytestream that conservatively drops inputs which could loop forever or
// behave differently between platforms, so that compliance testing stays
// fully automatic (no spurious signature mismatches to triage by hand).
//
// The filter drops a bytestream if a forbidden instruction (JALR, xRET,
// WFI, EBREAK, SFENCE.VMA, any CSR instruction) is reachable, control
// flow can leave the local bounds or loop, or a memory access uses a base
// register that no longer holds the data-window address (only x30/x31
// start clean; any write dirties its destination) or an immediate that is
// not access-size aligned.
//
// Since the fixpoint rewrite the decision engine is internal/analysis: a
// fixpoint over a per-register lattice, computed in one ascending pass
// over the stream's instruction sites (another pass only when a feasible
// back edge changes an earlier site), linear in sites x registers where
// the original enumerated control-flow paths (exponential in branches,
// requiring a conservative fork budget).
// The historical path-enumeration engine survives in this package's
// tests as Exhaustive, the differential-testing oracle: Filter accepts a
// superset of what Exhaustive accepts, and never drops for budget
// reasons.
package filter

import (
	"fmt"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/isa"
)

// Result reports the filter decision for one bytestream.
type Result struct {
	Accepted bool
	Reason   analysis.Reason
	// PC is the local offset of the instruction that caused a drop.
	PC int32
	// Op is the operation at that offset (when meaningful).
	Op isa.Op
	// Paths is the number of accepted control-flow paths.
	Paths int
}

func (r Result) String() string {
	if r.Accepted {
		return fmt.Sprintf("accepted (%d paths)", r.Paths)
	}
	return fmt.Sprintf("dropped at +%d: %s (%v)", r.PC, r.Reason, r.Op)
}

// Filter checks bytestreams with the fixpoint dataflow engine. The zero
// value is ready to use (user-suite semantics).
//
// A Filter reuses one analysis.Analysis across calls, so Check stops
// allocating once it has seen its longest stream. A Filter is therefore
// not safe for concurrent use, and a copy of a used Filter shares its
// buffers: give each goroutine its own (every fuzz worker owns one).
type Filter struct {
	// MaxLen, when nonzero, drops bytestreams longer than this many bytes
	// (the injection area limit).
	MaxLen int
	// Trap selects the trap-suite family semantics
	// (analysis.Analysis.Analyze): deliberate traps resume past the faulting
	// word under the recording handler, the forbidden set shrinks to
	// analysis.TrapForbidden, and only stores keep the clean-base rule.
	Trap bool

	an analysis.Analysis
}

// Check analyses the bytestream and returns the accept/drop decision.
func (f *Filter) Check(bs []byte) Result {
	if f.MaxLen > 0 && len(bs) > f.MaxLen {
		return Result{Reason: analysis.ReasonTooLong, PC: int32(len(bs))}
	}
	f.an.Analyze(bs, f.Trap)
	v := f.an.Verdict
	return Result{
		Accepted: v.Reason == analysis.ReasonNone,
		Reason:   v.Reason,
		PC:       v.PC,
		Op:       v.Op,
		Paths:    v.Paths,
	}
}

// Analysis returns the analysis of the last stream Check analysed (a
// stream longer than MaxLen is not analysed), in the Filter's mode. It
// is the Filter's own reused value: the next Check invalidates it.
func (f *Filter) Analysis() *analysis.Analysis { return &f.an }
