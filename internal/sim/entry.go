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
		s.cpu = s.reset
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

// skipper is implemented by hooks that can account for a region of the
// template's input-independent code without watching it execute
// (coverage.Collector): the prefix, the dump, and each path through the
// trap handler. A skipper reads a run's coverage, never its signature,
// so a run under one returns Outcome.Signature nil whether the dump was
// summarized or executed; a run under any other hook builds the
// signature as an unhooked run does.
//
// Skip stands for one region and reports whether the skipper accounts
// for it; on false it must have touched nothing, and the region executes
// under the hook. run executes the region with the given hook attached
// and leaves the hart, the executor and the memory as it found them, and
// key identifies the region (equal keys, equal code), so an
// implementation may run it once per key. Every execution of a region
// fetches the same instructions and takes the same edges. slot is 0 for
// the prefix and 1 for the dump, which a run passes in that order, each
// at most once, and -1 for a handler path, which a run may pass any
// number of times.
//
// h is the hart the region starts from when New proved that each
// register value the region reads is either an entry register's, one no
// earlier instruction of the region writes (isa.FlagWritesRD), read from
// h, or the same whatever h holds: the reset hart for the prefix, which
// reads nothing of the input, and the hart at dump: for the dump. A
// handler path passes nil: the register values its instructions read
// vary from trap to trap. The answer may depend on the skipper and on
// whether h is nil, but not on the key: a simulator does not ask a
// skipper that declined a handler path again.
type skipper interface {
	Skip(key any, run func(exec.Hook), h *hart.Hart, slot int) bool
}

// attach wires s over img the way img.NewExecutorCfg wires a fresh
// executor, whose hart is the reset hart. s must not move afterwards:
// the executor and replay point into it.
func (s *Simulator) attach(img *template.Image, dec *isa.Decoder) {
	e := img.NewExecutorCfg(s.eff, dec, s.Variant.ExecQuirks)
	s.img, s.reset, s.cpu, s.ex = img, *e.CPU, *e.CPU, *e
	s.ex.CPU = &s.cpu
	s.replay = s.replayRegion
}

// start readies s for one run of bs: it injects the input and sets the
// hart to the entry state when the prefix may be skipped, to reset
// otherwise. A run whose Limit is at or below the prefix length executes
// the prefix, so it times out where it always did.
func (s *Simulator) start(bs []byte, hook exec.Hook) error {
	if err := s.img.Inject(bs); err != nil {
		return err
	}
	e := &s.ex
	if x := s.entry; x != nil && x.insts < s.Limit && s.skip(hook, x, &s.reset, x.insts, &s.reset, 0) {
		s.cpu, e.InstCount = x.cpu, x.insts
	} else {
		s.cpu, e.InstCount = s.reset, 0
	}
	e.Halted, e.TrapCount, e.Hook = false, 0, hook
	return nil
}

// skip reports whether a run under hook may stand for the region of n
// instructions from *from instead of executing it. A nil hook observes
// nothing, a skipper is handed the region (key, h and slot as in
// skipper.Skip) and decides, and any other hook has to watch it
// execute.
func (s *Simulator) skip(hook exec.Hook, key any, from *hart.Hart, n uint64, h *hart.Hart, slot int) bool {
	if hook == nil {
		return true
	}
	sk, ok := hook.(skipper)
	if !ok {
		return false
	}
	s.from, s.n = from, n
	return sk.Skip(key, s.replay, h, slot)
}

// replayRegion executes the region skip is handing to a skipper, n
// instructions from *from, with hook attached, then puts the hart, the
// executor's counters and hook, and the memory back: the run goes on as
// if the region had not executed. mem.Memory.Undo copies only the pages
// the run has written, not the image. The prefix runs on the injected
// image, which fastForward proved makes no difference: it reads nothing
// of the injection area.
func (s *Simulator) replayRegion(hook exec.Hook) {
	e := &s.ex
	cpu, n, traps, halted, hk := s.cpu, e.InstCount, e.TrapCount, e.Halted, e.Hook
	s.cpu, e.Hook = *s.from, hook
	s.img.Mem.Undo(func() {
		for range s.n {
			e.Step()
		}
	})
	s.cpu, e.InstCount, e.TrapCount, e.Halted, e.Hook = cpu, n, traps, halted, hk
}
