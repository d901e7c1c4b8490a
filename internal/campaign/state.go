package campaign

import "fmt"

// State is a job's position in the campaign lifecycle:
//
//	queued ──────────────► running ──► checkpointing ──► done
//	   │                      │              │      ├──► degraded
//	   ▼                      ▼              │      ├──► failed
//	canceled ◄─────────── canceled ◄─────────┤      └──► canceled
//	                                         │
//	              queued ◄───────────────────┘  (suspended; resumes later)
//
// Checkpointing is the transient barrier every running job passes through
// on the way out: the scheduler flushes the engine's final checkpoint and
// the job's artifacts there, so whatever terminal (or suspended) state
// follows is backed by durable files. A daemon killed outright (kill -9)
// leaves jobs in running; startup recovery walks them through
// checkpointing back to queued, from where they resume off their last
// on-disk checkpoint.
type State string

const (
	// StateQueued: accepted, waiting for a scheduler slot (or suspended
	// after a daemon shutdown, holding a resume checkpoint).
	StateQueued State = "queued"
	// StateRunning: executing on a scheduler slot.
	StateRunning State = "running"
	// StateCheckpointing: leaving the slot; final checkpoint and
	// artifacts are being persisted.
	StateCheckpointing State = "checkpointing"
	// StateDone: completed with clean results.
	StateDone State = "done"
	// StateDegraded: completed, but some results carry harness faults
	// (quarantined inputs, unhealthy simulators, skipped adapter cells)
	// — the campaign-level analogue of the CLIs' exit status 2.
	StateDegraded State = "degraded"
	// StateFailed: aborted on an error; no usable results.
	StateFailed State = "failed"
	// StateCanceled: stopped on operator request.
	StateCanceled State = "canceled"
)

// Terminal reports whether a job in this state will never run again.
func (s State) Terminal() bool {
	switch s {
	case StateDone, StateDegraded, StateFailed, StateCanceled:
		return true
	}
	return false
}

// transitions is the edge set of the lifecycle machine. Every state
// change in the scheduler and the store flows through Job.transition,
// which consults this table — an illegal hop is a bug, not a new
// behaviour.
var transitions = map[State][]State{
	StateQueued:  {StateRunning, StateCanceled},
	StateRunning: {StateCheckpointing, StateFailed, StateCanceled},
	StateCheckpointing: {
		StateDone, StateDegraded, StateFailed, StateCanceled,
		StateQueued, // suspended: daemon shutdown or startup recovery
	},
}

// canTransition reports whether from → to is a legal lifecycle edge.
func canTransition(from, to State) bool {
	for _, t := range transitions[from] {
		if t == to {
			return true
		}
	}
	return false
}

// transition moves the job to a new state, enforcing the lifecycle
// machine.
func (j *Job) transition(to State) error {
	if !canTransition(j.State, to) {
		return fmt.Errorf("campaign: job %s: illegal transition %s → %s", j.ID, j.State, to)
	}
	j.State = to
	return nil
}
