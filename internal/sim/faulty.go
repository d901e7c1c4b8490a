package sim

import (
	"crypto/sha256"
	"encoding/binary"

	"rvnegtest/internal/exec"
)

// Fault is one injectable harness-level failure mode.
type Fault int

const (
	// FaultNone delegates to the wrapped simulator unchanged.
	FaultNone Fault = iota
	// FaultPanic panics out of Run, as a buggy decoder or executor would.
	FaultPanic
	// FaultWedge blocks until released (or forever), the infinite-loop
	// failure only a wall-clock watchdog can observe.
	FaultWedge
	// FaultCorruptSig returns the real outcome with one signature word
	// flipped — a silently-wrong simulator.
	FaultCorruptSig
)

// Schedule decides which fault, if any, to inject for a given input. It
// is keyed on the input bytes rather than a call counter so injection is
// deterministic regardless of worker count or execution order.
type Schedule func(bs []byte) Fault

// inputHash mixes the input into a uniform 64-bit key.
func inputHash(seed int64, bs []byte) uint64 {
	h := sha256.New()
	var s [8]byte
	binary.LittleEndian.PutUint64(s[:], uint64(seed))
	h.Write(s[:])
	h.Write(bs)
	return binary.LittleEndian.Uint64(h.Sum(nil)[:8])
}

// SeededSchedule injects each fault class with the given per-input
// probability (0..1), chosen deterministically from a hash of (seed,
// input). The probabilities are evaluated in order panic, wedge, corrupt
// over disjoint hash ranges, so one input triggers at most one fault.
func SeededSchedule(seed int64, pPanic, pWedge, pCorrupt float64) Schedule {
	return func(bs []byte) Fault {
		u := float64(inputHash(seed, bs)>>11) / float64(1<<53)
		switch {
		case u < pPanic:
			return FaultPanic
		case u < pPanic+pWedge:
			return FaultWedge
		case u < pPanic+pWedge+pCorrupt:
			return FaultCorruptSig
		}
		return FaultNone
	}
}

// Faulty wraps a simulator and injects faults on a schedule. It exists
// for the resilience tests: each degradation path (panic isolation,
// watchdog reaping, breaker tripping) is proved end to end against a
// simulator that actually misbehaves.
type Faulty struct {
	// Inner is the wrapped simulator.
	Inner HookedSim
	// Plan decides the fault for each input; nil means never fault.
	Plan Schedule
	// PanicMsg overrides the injected panic value (default
	// "faulty: injected panic") so tests can assert message preservation.
	PanicMsg string
	// Release, when non-nil, unblocks wedged runs at test teardown so the
	// abandoned goroutines exit instead of leaking past the test. A nil
	// Release wedges forever.
	Release <-chan struct{}
}

// Run implements Sim.
func (f *Faulty) Run(bs []byte) Outcome { return f.RunHooked(bs, nil) }

// RunHooked implements HookedSim.
func (f *Faulty) RunHooked(bs []byte, hook exec.Hook) Outcome {
	fault := FaultNone
	if f.Plan != nil {
		fault = f.Plan(bs)
	}
	switch fault {
	case FaultPanic:
		msg := f.PanicMsg
		if msg == "" {
			msg = "faulty: injected panic"
		}
		panic(msg)
	case FaultWedge:
		if f.Release != nil {
			<-f.Release
		} else {
			select {}
		}
		return Outcome{}
	case FaultCorruptSig:
		out := f.Inner.RunHooked(bs, hook)
		if len(out.Signature) > 0 {
			sig := make([]uint32, len(out.Signature))
			copy(sig, out.Signature)
			i := int(inputHash(^int64(0), bs) % uint64(len(sig)))
			sig[i] ^= 0xdeadbeef
			out.Signature = sig
		}
		return out
	}
	return f.Inner.RunHooked(bs, hook)
}

// PredecodeStats delegates to the wrapped simulator's decode-cache
// counters when it has them, keeping the fault wrapper transparent to
// telemetry.
func (f *Faulty) PredecodeStats() exec.CacheStats {
	if s, ok := f.Inner.(PredecodeStatser); ok {
		return s.PredecodeStats()
	}
	return exec.CacheStats{}
}

var _ HookedSim = (*Faulty)(nil)
var _ PredecodeStatser = (*Faulty)(nil)
