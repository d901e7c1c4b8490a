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
// function of the pristine image and the variant, computed once per New.
type entryState struct {
	cpu   hart.Hart
	insts uint64
}

// fastForward runs the template from reset up to the first fetch at
// InjectAddr and returns the entry state, or nil when a run must execute
// the prefix itself: the prefix halts, traps, panics, executes a store,
// reads the injection area, or needs Limit instructions or more. Reading
// the area is caught by running the prefix with the area filled with
// 0x00 and with 0xff and requiring the same state. It runs on the
// simulator's own image, which it restores afterwards.
func (s *Simulator) fastForward() *entryState {
	defer s.img.Mem.Restore()
	atEntry := func() bool { return s.cpu.PC == s.img.InjectAddr }
	var got [2]entryState
	for i, fill := range []byte{0x00, 0xff} {
		if s.img.Inject(bytes.Repeat([]byte{fill}, s.Platform.Layout.MaxBytes())) != nil {
			return nil
		}
		s.cpu.Reset()
		s.cpu.PC = s.img.Entry
		var st storeTrace
		if !s.trial(&st, atEntry) || st.stored || s.ex.InstCount >= s.Limit {
			return nil
		}
		got[i] = entryState{cpu: s.cpu, insts: s.ex.InstCount}
	}
	if got[0] != got[1] {
		return nil
	}
	return &got[0]
}

// storeTrace is the hook the prefix runs under: it notes whether any
// instruction that writes memory (isa.FlagStore: every store, SC and
// AMO) executed.
type storeTrace struct{ stored bool }

func (t *storeTrace) OnInst(in *isa.Inst, _ *hart.Hart) {
	t.stored = t.stored || in.Info().Flags.Is(isa.FlagStore)
}
func (t *storeTrace) OnEdge(uint32) {}

// trial steps the executor from the hart as it stands, with hook
// attached and its counters reset, until stop holds, and reports whether
// it got there without halting, trapping, reaching Limit or panicking
// first. The hook is detached afterwards. New derives the entry state
// and both summaries through it.
func (s *Simulator) trial(hook exec.Hook, stop func() bool) (ok bool) {
	e := &s.ex
	e.Hook, e.InstCount, e.TrapCount, e.Halted = hook, 0, 0, false
	defer func() {
		e.Hook = nil
		if recover() != nil {
			ok = false
		}
	}()
	for !stop() {
		if e.Halted || e.TrapCount > 0 || e.InstCount >= s.Limit {
			return false
		}
		e.Step()
	}
	return e.TrapCount == 0
}

// skipper is implemented by hooks that can account for the template's
// input-independent prefix, its trap handler's paths and its shutdown
// sequence without watching them execute (coverage.Collector). A skipper
// reads a run's coverage, never its signature, so a run under one
// returns Outcome.Signature nil whether the dump was summarized or
// executed; a run under any other hook builds the signature as an
// unhooked run does. In every method run executes the stretch with the
// given hook attached and key identifies it (equal keys, equal code), so
// an implementation may run it once per key.
//
// SkipPrefix stands for the prefix, which starts from reset. SkipExit
// stands for the dump executed from h; run leaves h and the run as it
// found them. Within the dump, an integer register no earlier dump
// instruction writes (isa.FlagWritesRD) still holds its value in h, while
// every other register value a dump instruction reads (isa.FlagReadsRS1,
// isa.FlagReadsRS2) and every hook event is the same whatever h holds:
// New proved both before keeping the summary.
//
// SkipTrap stands for one path through the trap handler, from its base
// up to the mret or dump: after it, and reports whether the skipper
// accounts for it; on false it must have touched nothing, and the
// handler executes under the hook. The answer may depend on the skipper
// but not on the key: a simulator does not ask a skipper that declined
// again. Every execution of a path fetches the same instructions and
// takes the same edges, whatever the hart holds, but the register
// values its instructions read vary. run leaves the hart, the executor
// and the memory as it found them.
type skipper interface {
	SkipPrefix(key any, run func(exec.Hook))
	SkipExit(key any, run func(exec.Hook), h *hart.Hart)
	SkipTrap(key any, run func(exec.Hook)) bool
}

// attach wires s over img the way img.NewExecutorCfg wires a fresh
// executor. s must not move afterwards: the executor and replay point
// into it.
func (s *Simulator) attach(img *template.Image, dec *isa.Decoder) {
	e := img.NewExecutorCfg(s.eff, dec, s.Variant.ExecQuirks)
	s.img, s.cpu, s.ex = img, *e.CPU, *e
	s.ex.CPU = &s.cpu
	s.replay, s.exitReplay, s.trapReplay = s.replayPrefix, s.replayExit, s.replayTrap
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
