package exec

import "fmt"

// DefaultQuantum is the per-lane instruction budget of one lockstep
// round. Large enough that the round-robin overhead vanishes, small
// enough that lanes stay warm in cache together.
const DefaultQuantum = 4096

// LaneStatus is the terminal state of one batch lane after Run.
type LaneStatus struct {
	// Done is set once the lane halted, timed out or panicked; Run skips
	// done lanes in later rounds.
	Done bool
	// Err is nil for a halted lane and ErrTimeout for a lane that
	// exhausted the instruction limit, mirroring Executor.Run.
	Err error
	// Panicked records a panic isolated from the lane's executor (e.g. a
	// seeded decoder-crash defect); PanicMsg carries fmt.Sprint of the
	// recovered value, the same rendering the scalar harness uses.
	Panicked bool
	PanicMsg string
}

// Batch steps N executors in lockstep: each round gives every live lane
// a quantum of instructions, so the lanes march through the shared
// immutable predecode together instead of one lane streaming the whole
// image through the CPU cache alone. Lanes are independent executors
// over cloned state; a panic in one lane is isolated to its status and
// never disturbs the others. The per-round loop allocates nothing — the
// status slice is reused across Run calls.
type Batch struct {
	Lanes []*Executor
	// Quantum overrides DefaultQuantum when > 0.
	Quantum uint64

	status []LaneStatus
}

// Run drives all lanes to completion against a shared instruction
// limit and returns one status per lane. The returned slice is reused
// by the next Run call. Quantum size is invisible in the results: a
// lane's trajectory is identical to a solo Executor.Run(limit).
func (b *Batch) Run(limit uint64) []LaneStatus {
	q := b.Quantum
	if q == 0 {
		q = DefaultQuantum
	}
	if cap(b.status) < len(b.Lanes) {
		b.status = make([]LaneStatus, len(b.Lanes))
	}
	b.status = b.status[:len(b.Lanes)]
	for i := range b.status {
		b.status[i] = LaneStatus{}
	}
	live := len(b.Lanes)
	var target uint64
	for live > 0 {
		if target < limit {
			target += q
			if target > limit {
				target = limit
			}
		}
		for i, e := range b.Lanes {
			st := &b.status[i]
			if st.Done {
				continue
			}
			runLaneQuantum(e, target, st)
			if e.Halted {
				st.Done = true
			} else if !st.Done && e.InstCount >= limit {
				st.Done = true
				st.Err = ErrTimeout
			}
			if st.Done {
				live--
			}
		}
	}
	return b.status
}

// runLaneQuantum steps one lane until it halts or reaches the round's
// instruction target, isolating panics into the lane status. The target
// never exceeds limit, so the quantum only decides when the round loop
// yields to the next lane, and a lane stops at exactly the instruction a
// solo Executor.Run(limit) would.
func runLaneQuantum(e *Executor, target uint64, st *LaneStatus) {
	defer func() {
		if r := recover(); r != nil {
			st.Done = true
			st.Panicked = true
			st.PanicMsg = fmt.Sprint(r)
		}
	}()
	for !e.Halted && e.InstCount < target {
		e.Step()
	}
}
