package resilience

// Breaker is a consecutive-fault circuit breaker for one simulator
// instance: harness-level faults (reaped panics, watchdog timeouts,
// adapter protocol failures) increment a streak that any successful run
// resets; when the streak reaches Threshold the breaker opens and the
// caller marks the target's remaining work skipped instead of burning the
// shard on a target that will fault on every input.
//
// Recovery comes in two flavours. The historical default (HalfOpenAfter
// zero) stays open forever — right for in-process simulators, where a
// fault streak means the model itself is broken and re-running cannot
// heal it. With HalfOpenAfter set, the breaker counts the runs it denies
// while open and, after that many skips, admits a single probe run
// (half-open): a success closes the breaker, a failure re-opens it and
// the cool-down starts over. External subprocess adapters enable this —
// a kill-and-restart can genuinely heal an out-of-process target. The
// cool-down is measured in skipped runs, not wall time, so breaker
// behaviour stays deterministic for a fixed schedule.
//
// Modeled defects — a simulator outcome that reports Crashed or TimedOut
// through its own error handling — are measurements, not harness faults,
// and must not be recorded here (the paper's sail-riscv "crash" cells are
// findings, not infrastructure failures).
type Breaker struct {
	// Threshold is the consecutive-fault count that opens the breaker;
	// zero or negative disables it.
	Threshold int
	// HalfOpenAfter is the number of denied (skipped) runs after which an
	// open breaker admits one probe run. Zero or negative keeps the
	// historical stay-open behaviour.
	HalfOpenAfter int
	// OnTransition, when non-nil, observes every state change: closed
	// to open once per open episode (threshold reached or Trip), so
	// exactly once for the historical stay-open breaker, and the
	// half-open probe's moves, re-opens after a failed probe included.
	// It runs on the goroutine that recorded the fault; the breaker
	// itself is single-goroutine, so the hook needs its own
	// synchronization only if it touches shared state.
	OnTransition func(from, to BreakerState)

	streak  int
	tripped bool
	denied  int  // runs denied since (re-)opening
	probing bool // a half-open probe run is in flight
}

// BreakerState is the breaker's position in the closed → open →
// half-open cycle.
type BreakerState uint8

const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// Allow reports whether the next run may proceed. Closed: always. Open:
// the denial is counted toward the half-open cool-down; once
// HalfOpenAfter runs have been skipped the next Allow admits a single
// probe (half-open). While a probe is in flight further runs are denied
// without advancing the cool-down; the probe's RecordOK/RecordFault
// resolves the state.
func (b *Breaker) Allow() bool {
	if !b.tripped {
		return true
	}
	if b.HalfOpenAfter <= 0 || b.probing {
		return false
	}
	if b.denied < b.HalfOpenAfter {
		b.denied++
		return false
	}
	b.probing = true
	b.transition(BreakerOpen, BreakerHalfOpen)
	return true
}

// RecordFault counts one harness-level fault. A fault while a half-open
// probe is in flight re-opens the breaker and restarts the cool-down.
func (b *Breaker) RecordFault() {
	if b.Threshold <= 0 {
		return
	}
	if b.probing {
		b.probing = false
		b.denied = 0
		b.transition(BreakerHalfOpen, BreakerOpen)
		return
	}
	b.streak++
	if b.streak >= b.Threshold && !b.tripped {
		b.open()
	}
}

// RecordOK resets the consecutive-fault streak; a successful half-open
// probe closes the breaker entirely.
func (b *Breaker) RecordOK() {
	if b.probing {
		b.probing = false
		b.tripped = false
		b.denied = 0
		b.streak = 0
		b.transition(BreakerHalfOpen, BreakerClosed)
		return
	}
	b.streak = 0
}

// Trip opens the breaker unconditionally (e.g. the instance could not be
// rebuilt after a wedge).
func (b *Breaker) Trip() {
	if !b.tripped {
		b.open()
	}
}

func (b *Breaker) open() {
	b.tripped = true
	b.probing = false
	b.denied = 0
	b.transition(BreakerClosed, BreakerOpen)
}

func (b *Breaker) transition(from, to BreakerState) {
	if b.OnTransition != nil {
		b.OnTransition(from, to)
	}
}

// Tripped reports whether the breaker is open (a half-open probe in
// flight still counts as tripped: the target is not yet trusted again).
func (b *Breaker) Tripped() bool { return b.tripped }
