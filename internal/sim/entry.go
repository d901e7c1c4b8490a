package sim

import (
	"bytes"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

// entryState is the architectural state at the first fetch of the
// injection area: the result of the template's prefix (trap vector,
// FS setup, register and FP register loads). It is a deterministic
// function of the pristine image and the variant, computed once per New
// and shared by clones.
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

// skipper is implemented by hooks that can account for the template's
// input-independent prefix and shutdown sequence without watching them
// execute (coverage.Collector). In both methods run executes the stretch
// with the given hook attached and key identifies it (equal keys, equal
// code), so an implementation may run it once per key.
//
// SkipPrefix stands for the prefix, which starts from reset. SkipExit
// stands for the dump executed from h; run leaves h and the run as it
// found them. Within the dump, an integer register no earlier dump
// instruction writes (isa.FlagWritesRD) still holds its value in h, while
// every other register value a dump instruction reads (isa.FlagReadsRS1,
// isa.FlagReadsRS2) and every hook event is the same whatever h holds:
// New proved both before keeping the summary.
type skipper interface {
	SkipPrefix(key any, run func(exec.Hook))
	SkipExit(key any, run func(exec.Hook), h *hart.Hart)
}

// attach wires s over img the way img.NewExecutorCfg wires a fresh
// executor. s must not move afterwards: the executor and replay point
// into it.
func (s *Simulator) attach(img *template.Image, dec *isa.Decoder) {
	e := img.NewExecutorCfg(s.eff, dec, s.Variant.ExecQuirks)
	s.img, s.cpu, s.ex = img, *e.CPU, *e
	s.ex.CPU = &s.cpu
	s.replay, s.exitReplay = s.replayPrefix, s.replayExit
}

// start readies s for one run of bs: it injects the input and sets the
// hart to the entry state when the prefix may be skipped, to reset
// otherwise.
func (s *Simulator) start(bs []byte, hook exec.Hook) error {
	if err := s.img.Inject(bs); err != nil {
		return err
	}
	e := &s.ex
	if s.skipPrefix(hook) {
		s.cpu, e.InstCount = s.entry.cpu, s.entry.insts
	} else {
		s.cpu.Reset()
		s.cpu.PC = s.img.Entry
		e.InstCount = 0
	}
	e.Halted, e.TrapCount, e.Hook = false, 0, hook
	return nil
}

// skipPrefix reports whether a run under hook may start at the entry
// state. A nil hook observes nothing, a skipper accounts for the prefix
// itself, and any other hook has to watch it execute.
func (s *Simulator) skipPrefix(hook exec.Hook) bool {
	if s.entry == nil || s.entry.insts >= s.Limit {
		return false
	}
	if hook == nil {
		return true
	}
	ps, ok := hook.(skipper)
	if ok {
		ps.SkipPrefix(s.entry, s.replay)
	}
	return ok
}

// replayPrefix executes the prefix from reset with hook attached. It
// runs on the simulator's injected image, which fastForward proved makes
// no difference: the prefix reads nothing of the injection area.
func (s *Simulator) replayPrefix(hook exec.Hook) {
	e := &s.ex
	e.Hook, e.InstCount = hook, 0
	s.cpu.Reset()
	s.cpu.PC = s.img.Entry
	for e.InstCount < s.entry.insts {
		e.Step()
	}
}
