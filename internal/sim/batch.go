// Batched lockstep execution: a BatchRunner owns N persistent lanes —
// cloned image, decode-cache clone, hart and executor — and runs N test
// cases at once through exec.Batch. Every lane reproduces RunHooked
// exactly (it starts through the same lane.start and classifies through
// the same lane.outcome; panics are isolated per lane), so a batch of N
// cases returns the same N outcomes as N sequential scalar runs;
// batching is purely an execution strategy.
//
// The batch path reads no clocks: the per-run predecode maintenance
// timer is a scalar-path-only observation, and batch-level watchdogs
// belong to the callers (fuzz/compliance wrap RunHookedBatch in a
// resilience.Guard scaled by the batch size).
package sim

import (
	"errors"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/isa"
)

// errNotBatchable reports a wrapper whose inner simulator has no batch
// support; callers fall back to scalar runs.
var errNotBatchable = errors.New("sim: simulator does not support batching")

// Batcher is implemented by simulators that can run test cases in
// batched lockstep. A BatchRunner is single-goroutine like the
// simulator it came from; callers that abandon one (watchdog timeout)
// must drop it and build a fresh one.
type Batcher interface {
	NewBatch(n int) (BatchRunner, error)
}

// BatchRunner runs groups of test cases in lockstep.
type BatchRunner interface {
	// RunHookedBatch runs the inputs one lane each (cycling through the
	// lanes in chunks when len(inputs) exceeds the batch size) and
	// returns one outcome per input, equal to what sequential
	// RunHooked(inputs[i], hooks[i]) calls would return. hooks may be
	// nil (no coverage); otherwise hooks[i] attaches to input i.
	RunHookedBatch(inputs [][]byte, hooks []exec.Hook) []Outcome
	// PredecodeStats sums the lanes' cumulative decode-cache counters in
	// lane order (the deterministic campaign fold).
	PredecodeStats() exec.CacheStats
	// LanePredecodeStats returns lane i's cumulative counters, letting a
	// caller attribute counter growth to individual cases.
	LanePredecodeStats(i int) exec.CacheStats
}

type simBatch struct {
	limit uint64
	// lanes is one contiguous allocation, so the lockstep rounds walk
	// adjacent harts and executors.
	lanes []lane
	batch exec.Batch
	// idx is scratch: the input indexes whose lanes actually ran in the
	// current chunk (injection failures never start a lane).
	idx []int
}

// NewBatch builds a runner with n lanes cloned from this simulator.
// Each lane owns a private image and decode-cache clone (sharing only
// the immutable predecode and entry state), so lanes never observe each
// other. The parent simulator stays usable for scalar runs.
func (s *Simulator) NewBatch(n int) (BatchRunner, error) {
	if n < 1 {
		n = 1
	}
	b := &simBatch{limit: s.Limit, lanes: make([]lane, n)}
	b.batch.Lanes = make([]*exec.Executor, n)
	// Like Clone, the batch shares nothing mutable with its parent (an
	// abandoned runner's goroutine may outlive the caller's interest).
	dec := &isa.Decoder{Quirks: s.Variant.DecQuirks}
	for i := range b.lanes {
		cache := s.l.cache.Clone()
		if s.NoPredecode {
			cache = nil
		}
		s.initLane(&b.lanes[i], s.l.img.Clone(), cache, dec)
		b.batch.Lanes[i] = &b.lanes[i].ex
	}
	return b, nil
}

func (b *simBatch) RunHookedBatch(inputs [][]byte, hooks []exec.Hook) []Outcome {
	outs := make([]Outcome, len(inputs))
	for lo := 0; lo < len(inputs); lo += len(b.lanes) {
		hi := min(lo+len(b.lanes), len(inputs))
		b.runChunk(inputs[lo:hi], hooks, lo, outs[lo:hi])
	}
	return outs
}

// runChunk runs up to len(lanes) cases in one lockstep round set.
// hookBase is the chunk's offset into the hooks slice.
func (b *simBatch) runChunk(inputs [][]byte, hooks []exec.Hook, hookBase int, outs []Outcome) {
	active := b.batch.Lanes[:0]
	b.idx = b.idx[:0]
	for i, bs := range inputs {
		var hook exec.Hook
		if hooks != nil {
			hook = hooks[hookBase+i]
		}
		if err := b.lanes[i].start(bs, hook, b.limit); err != nil {
			outs[i] = Outcome{Crashed: true, CrashMsg: err.Error()}
			continue
		}
		b.idx = append(b.idx, i)
		active = append(active, &b.lanes[i].ex)
	}
	if len(active) == 0 {
		return
	}
	b.batch.Lanes = active
	status := b.batch.Run(b.limit)

	// Outcome extraction: classify each lane exactly like RunHooked.
	for si, i := range b.idx {
		l := &b.lanes[i]
		if st := status[si]; st.Panicked {
			outs[i] = Outcome{Crashed: true, CrashMsg: st.PanicMsg, Insts: l.ex.InstCount, Traps: l.ex.TrapCount}
		} else {
			outs[i] = l.outcome(st.Err)
		}
	}
}

func (b *simBatch) PredecodeStats() exec.CacheStats {
	var s exec.CacheStats
	for i := range b.lanes {
		s.Add(b.lanes[i].cache.Stats())
	}
	return s
}

func (b *simBatch) LanePredecodeStats(i int) exec.CacheStats {
	return b.lanes[i].cache.Stats()
}

var _ Batcher = (*Simulator)(nil)
var _ PredecodeStatser = (*simBatch)(nil)
