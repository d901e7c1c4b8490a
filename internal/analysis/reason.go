// Package analysis implements the static-analysis engine behind the
// paper's bytestream filter (section IV-C) as a classic dataflow problem:
// the instruction sites of the decoded bytestream, each with its static
// successors, and a fixpoint over a per-register lattice (bottom /
// known-constant / clean-address / dirty) with join at merge points,
// computed in one ascending pass over the sites unless a feasible back
// edge changes an earlier site's state.
//
// The fixpoint formulation makes the filter's cost linear in
// sites x registers per pass instead of exponential in the number of
// conditional branches, so branch-dense inputs — exactly the shape
// block-mutation fuzzers favour — are decided semantically rather than
// dropped for budget reasons. Tracking known constants additionally lets
// the engine fold conditional branches whose outcome is statically
// determined into unconditional edges, so statically infeasible "loops"
// and out-of-bounds targets no longer cause drops; loop detection becomes
// cycle detection on the feasible subgraph, and runs only when that
// subgraph has a back edge.
//
// The engine only ever accepts MORE than the path-enumeration filter it
// replaces (see the package-level soundness argument in DESIGN.md): edges
// it prunes are statically infeasible, reachability and joined register
// states over the remaining edges over-approximate every concrete
// execution, and every check the old filter applied per path is applied
// here to the join over all feasible paths.
package analysis

// Reason classifies why a bytestream was dropped (ReasonNone = accepted).
// The first eight values mirror the historical filter taxonomy so existing
// telemetry stays comparable; ReasonPathBudget is only ever produced by
// the legacy path-enumeration engine the filter package's tests keep as
// a differential oracle (Exhaustive), never by the fixpoint engine.
type Reason uint8

const (
	// ReasonNone: the bytestream was accepted.
	ReasonNone Reason = iota
	// ReasonForbidden: a forbidden instruction is reachable.
	ReasonForbidden
	// ReasonLoop: the feasible CFG contains a reachable cycle.
	ReasonLoop
	// ReasonOutOfBounds: control flow can leave the bytestream.
	ReasonOutOfBounds
	// ReasonDirtyAddress: a memory access uses a dirty base register.
	ReasonDirtyAddress
	// ReasonUnalignedImm: a memory access immediate is not size-aligned.
	ReasonUnalignedImm
	// ReasonStraddle: a 32-bit encoding straddles the bytestream end (its
	// upper half would come from the template, which the filter does not
	// model).
	ReasonStraddle
	// ReasonPathBudget: the legacy engine's path fork budget was exhausted
	// (conservative drop). The fixpoint engine never emits this.
	ReasonPathBudget
	// ReasonTooLong: the bytestream exceeds the configured maximum length
	// (the injection-area limit).
	ReasonTooLong

	// NumReasons sizes per-reason counter arrays.
	NumReasons
)

var reasonNames = [NumReasons]string{
	"accepted", "forbidden instruction", "potential loop", "control flow out of bounds",
	"dirty address register", "unaligned immediate", "straddling encoding",
	"path budget exhausted", "bytestream too long",
}

func (r Reason) String() string {
	if r < NumReasons {
		return reasonNames[r]
	}
	return "unknown"
}

// reasonSlugs are machine-friendly reason identifiers (metric label
// values, event fields); reasonNames stay the human-readable forms.
var reasonSlugs = [NumReasons]string{
	"accepted", "forbidden", "loop", "out_of_bounds",
	"dirty_address", "unaligned_imm", "straddle",
	"path_budget", "too_long",
}

// Slug returns a label-safe identifier for the reason.
func (r Reason) Slug() string {
	if r < NumReasons {
		return reasonSlugs[r]
	}
	return "unknown"
}
