package sim

import (
	"bytes"
	"time"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/template"
)

// entryState is the architectural state at the first fetch of the
// injection area: the result of the template's prefix (trap vector,
// FS setup, register and FP register loads). It is a deterministic
// function of the pristine image and the variant, computed once per New
// and shared by clones and batch lanes.
type entryState struct {
	cpu   hart.Hart
	insts uint64
}

// fastForward runs the pristine template from reset up to the first
// fetch at InjectAddr and returns the entry state, or nil when a run
// must execute the prefix itself: the prefix halts, traps, panics,
// writes memory, reads the injection area, or needs limit instructions
// or more. Reading the area is caught by running the prefix with the
// area filled with 0x00 and with 0xff and requiring the same state.
func fastForward(img *template.Image, eff isa.Config, dec *isa.Decoder, q exec.Quirks, limit uint64) *entryState {
	var got [2]entryState
	for i, fill := range []byte{0x00, 0xff} {
		im := img.Clone()
		if im.Inject(bytes.Repeat([]byte{fill}, im.Platform.Layout.MaxBytes())) != nil {
			return nil
		}
		im.Mem.Snapshot() // from here on any store leaves the memory dirty
		e := im.NewExecutorCfg(eff, dec, q)
		if !runToEntry(e, im.InjectAddr, limit) || im.Mem.Dirty() {
			return nil
		}
		got[i] = entryState{cpu: *e.CPU, insts: e.InstCount}
	}
	if got[0] != got[1] {
		return nil
	}
	return &got[0]
}

// runToEntry steps e until its next fetch is at addr and reports
// whether it got there in fewer than limit instructions without
// halting, trapping or panicking.
func runToEntry(e *exec.Executor, addr uint32, limit uint64) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	for e.CPU.PC != addr {
		if e.Halted || e.TrapCount > 0 || e.InstCount >= limit {
			return false
		}
		e.Step()
	}
	return e.TrapCount == 0 && e.InstCount < limit
}

// prefixSkipper is implemented by hooks that can account for the prefix
// without watching it execute (coverage.Collector). run executes the
// prefix with the given hook attached; key identifies the prefix (equal
// keys, equal prefixes), so an implementation may run it once per key.
type prefixSkipper interface {
	SkipPrefix(key any, run func(exec.Hook))
}

// lane is one reusable run context over a private template image: the
// image, its decode cache, and the hart and executor every run resets
// instead of allocating. A Simulator owns one, a batch runner one per
// lane; both start runs through start, so they execute — and count in
// the cache — the same fetches.
type lane struct {
	img   *template.Image
	cache *exec.DecodeCache
	entry *entryState
	// timer observes the per-run cache maintenance; nil reads no clock.
	timer *obs.Histogram
	cpu   hart.Hart
	ex    exec.Executor
	// replay is l.replayPrefix, bound once so that handing it to a hook
	// allocates nothing per run.
	replay func(exec.Hook)
}

// initLane wires l over img the way img.NewExecutorCfg wires a fresh
// executor. l must not move afterwards: the executor and replay point
// into it.
func (s *Simulator) initLane(l *lane, img *template.Image, cache *exec.DecodeCache, dec *isa.Decoder) {
	e := img.NewExecutorCfg(s.eff, dec, s.Variant.ExecQuirks)
	*l = lane{img: img, cache: cache, entry: s.entry, cpu: *e.CPU, ex: *e}
	l.ex.CPU = &l.cpu
	l.ex.Cache = cache
	l.replay = l.replayPrefix
}

// start readies l for one run of bs: it injects the input, brings the
// attached decode cache in line with the injected memory, and sets the
// hart to the entry state when the prefix may be skipped, to reset
// otherwise.
func (l *lane) start(bs []byte, hook exec.Hook, limit uint64) error {
	if err := l.img.Inject(bs); err != nil {
		return err
	}
	if c := l.ex.Cache; c != nil {
		var t0 time.Time
		if l.timer != nil {
			t0 = time.Now()
		}
		// Inject restored memory to the pristine snapshot and wrote the
		// bytestream words; mirror both on the cache: roll deviated
		// slots back to the pristine predecode, then knock out the
		// freshly written injection area.
		c.Reset()
		if n := uint32(len(bs)+3) &^ 3; n > 0 {
			c.InvalidateRange(l.img.InjectAddr, n)
		}
		if l.timer != nil {
			l.timer.ObserveSince(t0)
		}
	}
	e := &l.ex
	if l.skipPrefix(hook, limit) {
		l.cpu, e.InstCount = l.entry.cpu, l.entry.insts
	} else {
		l.cpu.Reset()
		l.cpu.PC = l.img.Entry
		e.InstCount = 0
	}
	e.Halted, e.TrapCount, e.Hook = false, 0, hook
	return nil
}

// skipPrefix reports whether a run under hook may start at the entry
// state. A nil hook observes nothing, a prefixSkipper accounts for the
// prefix itself, and any other hook has to watch it execute.
func (l *lane) skipPrefix(hook exec.Hook, limit uint64) bool {
	if l.entry == nil || l.entry.insts >= limit {
		return false
	}
	if hook == nil {
		return true
	}
	ps, ok := hook.(prefixSkipper)
	if ok {
		ps.SkipPrefix(l.entry, l.replay)
	}
	return ok
}

// replayPrefix executes the prefix from reset with hook attached and the
// decode cache detached, so the replay counts no fetches. It runs on the
// lane's injected image, which fastForward proved makes no difference:
// the prefix reads nothing of the injection area.
func (l *lane) replayPrefix(hook exec.Hook) {
	e := &l.ex
	cache := e.Cache
	e.Cache, e.Hook, e.InstCount = nil, hook, 0
	l.cpu.Reset()
	l.cpu.PC = l.img.Entry
	for e.InstCount < l.entry.insts {
		e.Step()
	}
	e.Cache = cache
}

// outcome classifies a run that returned err (nil: halted) and extracts
// its signature.
func (l *lane) outcome(err error) Outcome {
	out := Outcome{Insts: l.ex.InstCount, Traps: l.ex.TrapCount}
	if err != nil {
		out.TimedOut, out.CrashMsg = classifyRunError(err)
		out.Crashed = !out.TimedOut
		return out
	}
	signature, err := l.img.Signature()
	if err != nil {
		out.Crashed = true
		out.CrashMsg = err.Error()
		return out
	}
	out.Signature = signature
	return out
}
