// Package sim provides the simulator models used in the paper's
// evaluation: one specification-faithful reference implementation plus
// behavioural variants of riscvOVPsim, Spike, VP, GRIFT and sail-riscv,
// each seeded with exactly the defect classes the paper reports finding in
// the real simulator (section V-B). All variants share the same executor
// and soft-float core, so signature divergence can only come from the
// seeded defects.
package sim

import (
	"errors"
	"fmt"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

// Variant describes one simulator model.
type Variant struct {
	Name        string
	Description string
	DecQuirks   isa.Quirks
	ExecQuirks  exec.Quirks
	// NoFD marks simulators without floating-point support (their table
	// cells read "/" for RV32GC in the paper).
	NoFD bool
	// MisconfiguredIMC models GRIFT's compliance target: when asked for
	// RV32IMC, the hart actually enables RV32GC, so F/D/A instructions
	// are erroneously accepted.
	MisconfiguredIMC bool
}

// Supports reports whether the simulator implements the configuration.
func (v *Variant) Supports(cfg isa.Config) bool {
	if v.NoFD && cfg.HasFP() {
		return false
	}
	return true
}

// Effective returns the configuration the hart actually implements when
// asked to run the given one.
func (v *Variant) Effective(cfg isa.Config) isa.Config {
	if v.MisconfiguredIMC && cfg == isa.RV32IMC {
		return isa.RV32GC
	}
	return cfg
}

// The simulator models. Reference has no defects; the others carry the
// paper's findings.
var (
	Reference = &Variant{
		Name:        "reference",
		Description: "specification-faithful model (no seeded defects)",
	}

	// OVPSim models riscvOVPsim, the official compliance reference
	// simulator: it accepts certain custom-0/custom-1 opcode patterns as
	// legal no-ops instead of raising an illegal-instruction exception.
	OVPSim = &Variant{
		Name:        "riscvOVPsim",
		Description: "accepts reserved custom-opcode patterns as legal NOPs",
		DecQuirks:   isa.Quirks{CustomAsNOP: true},
	}

	// Spike models the UC Berkeley reference simulator: an ECALL inside
	// the test body corrupts the dumped signature, and mtval reads as zero
	// after an illegal-instruction trap (the real Spike leaves mtval at
	// zero for exceptions it considers informationless). Only the trap
	// suite can observe the mtval defect: the user-level template never
	// reads mtval into the signature.
	Spike = &Variant{
		Name:        "Spike",
		Description: "dumps an incorrect signature when the body executes ECALL; zeroes mtval on traps",
		ExecQuirks: exec.Quirks{
			EcallMarksCompletion: true,
			Priv:                 hart.Quirks{MtvalZero: true},
		},
	}

	// VP models the RISC-V VP: a too-loose ECALL decode mask, normal
	// expansion of reserved non-hint compressed instructions, and vectored
	// dispatch erroneously applied to synchronous traps when mtvec mode is
	// vectored (the spec vectors asynchronous interrupts only). The real VP
	// has no floating-point support in its 32-bit ISS configuration.
	VP = &Variant{
		Name:        "VP",
		Description: "loose ECALL decode mask; executes reserved compressed encodings; vectors synchronous traps",
		DecQuirks:   isa.Quirks{LooseEcallMask: true, AllowReservedC: true},
		ExecQuirks:  exec.Quirks{Priv: hart.Quirks{VectoredSyncTrap: true}},
		NoFD:        true,
	}

	// Grift models GRIFT: link-register update before the misaligned-jump
	// exception, an RV32IMC target misconfigured to RV32GC, reserved
	// compressed encodings accepted, SC.W succeeding without a
	// reservation, and MRET failing to restore MIE from MPIE (the
	// interrupt-enable stack is left as the trap set it).
	Grift = &Variant{
		Name:        "GRIFT",
		Description: "jump side effects before trap; IMC target enables G; reserved C; SC.W without reservation; MRET skips MPIE restore",
		DecQuirks:   isa.Quirks{AllowReservedC: true},
		ExecQuirks: exec.Quirks{
			LinkBeforeAlignCheck: true,
			SCIgnoresReservation: true,
			Priv:                 hart.Quirks{MRETIgnoresMPIE: true},
		},
		MisconfiguredIMC: true,
	}

	// Sail models sail-riscv: incomplete decoder checks accept invalid
	// encodings (loose funct7, invalid branch funct3 acting as a backward
	// branch), a malformed compressed pattern crashes the decoder, and
	// mstatus CSR writes skip the WARL field masking (reserved bits are
	// stored verbatim). The tested sail build had no F/D support.
	Sail = &Variant{
		Name:        "sail-riscv",
		Description: "incomplete decoder checks; crash on malformed compressed pattern; unmasked mstatus writes",
		DecQuirks: isa.Quirks{
			LooseFunct7:         true,
			InvalidBranchFunct3: true,
			CrashOnPattern:      true,
		},
		ExecQuirks: exec.Quirks{Priv: hart.Quirks{CSRWriteNoMask: true}},
		NoFD:       true,
	}
)

// UnderTest lists the simulators compared against riscvOVPsim in Table I.
var UnderTest = []*Variant{Spike, VP, Sail, Grift}

// All lists every modelled simulator.
var All = []*Variant{Reference, OVPSim, Spike, VP, Sail, Grift}

// ByName finds a variant.
func ByName(name string) (*Variant, bool) {
	for _, v := range All {
		if v.Name == name {
			return v, true
		}
	}
	return nil, false
}

// DefaultInstLimit bounds one test-case execution; filter-accepted test
// cases finish in well under a thousand instructions, so exhausting the
// limit indicates simulator non-termination (a sail-riscv style defect).
const DefaultInstLimit = 20000

// Outcome is the result of running one test case on one simulator.
type Outcome struct {
	// Signature is the signature of a run that completed: a fresh slice
	// the caller owns, or the caller's buffer when the run was a RunInto
	// with room for it. A run hooked by a coverage collector (a skipper)
	// reads coverage only and leaves it nil, so that it allocates
	// nothing; every other completed run, hooked or not, has one.
	Signature []uint32
	Crashed   bool
	CrashMsg  string
	TimedOut  bool
	// Insts counts the instructions the run took, including those
	// accounted for without being executed: a template prefix the run
	// starts past, trap-handler paths and a shutdown sequence it
	// summarizes (DESIGN §19).
	Insts uint64
	// Traps counts the traps the executor raised during the run (both
	// families; only the trap suite turns them into signature content).
	Traps uint64
}

// Sim is the minimal simulator interface the compliance engine drives:
// run one bytestream test case, report the outcome. Implemented by
// *Simulator and by the Faulty fault-injection wrapper.
type Sim interface {
	Run(bs []byte) Outcome
}

// IntoSim is a Sim that can write a completed run's signature into a
// buffer its caller owns (see Simulator.RunInto). The compliance engine
// asserts it on each simulator instead of requiring it of every Sim, so
// that a decorator with only Run still drives the engine, through Run.
type IntoSim interface {
	Sim
	RunInto(bs []byte, sig []uint32) Outcome
}

// HookedSim is a Sim that also supports coverage-hooked execution (the
// fuzzing phase).
type HookedSim interface {
	Sim
	// RunHooked runs bs with hook attached. A coverage collector's run
	// returns no Signature (see Outcome.Signature); a run under any
	// other hook returns what Run returns.
	RunHooked(bs []byte, hook exec.Hook) Outcome
}

// Simulator is a variant instantiated for one platform, with the test-case
// template pre-compiled and pre-loaded (the paper's fuzzing-phase setup;
// the compliance phase re-uses it because the template test suite proves
// the injected image identical to a full per-test-case compilation), its
// input-independent prefix executed once (see entryState), its trap
// handler's paths and its shutdown sequence summarized (see
// handlerSummary and exitSummary). The template is assembled once per
// platform and process (template.Preload); each Simulator loads its own
// copy of the result, so simulators share nothing mutable and may run
// concurrently, one per goroutine.
type Simulator struct {
	Variant  *Variant
	Platform template.Platform
	Limit    uint64

	eff     isa.Config
	entry   *entryState     // nil: every run executes the prefix
	exit    *exitSummary    // nil: every run executes the dump
	handler *handlerSummary // nil: every trap executes the handler

	// declined is the last skipper that would not take a handler path.
	// exits counts the runs whose dump the exit summary stood for,
	// handled the handler paths the handler summary stood for. They come
	// before the run context so that their offsets do not follow the
	// size of its buffers.
	declined       exec.Hook
	exits, handled uint64

	// The run context every run resets instead of allocating: a private
	// template image, the reset hart, and the hart and executor over the
	// image. The executor's decode memo stays warm from run to run.
	img   *template.Image
	reset hart.Hart
	cpu   hart.Hart
	ex    exec.Executor
	// replay is s.replayRegion, bound once so that handing it to a hook
	// allocates nothing per run; from and n are the start hart and the
	// length of the region it executes (see skip).
	replay func(exec.Hook)
	from   *hart.Hart
	n      uint64
	// hr is the trap the handler summary is standing for.
	hr handlerRun
}

// New prepares a simulator for a platform. It fails if the variant does
// not support the platform's ISA configuration. It derives the entry
// state and the two summaries on the simulator's own image and executor,
// restoring the image after each.
func New(v *Variant, p template.Platform) (*Simulator, error) {
	if !v.Supports(p.Cfg) {
		return nil, fmt.Errorf("sim: %s does not support %v", v.Name, p.Cfg)
	}
	img, err := template.Preload(p)
	if err != nil {
		return nil, err
	}
	s := &Simulator{
		Variant:  v,
		Platform: p,
		Limit:    DefaultInstLimit,
		eff:      v.Effective(p.Cfg),
	}
	s.attach(img, &isa.Decoder{Quirks: v.DecQuirks})
	s.entry = s.fastForward()
	s.exit = s.summarizeExit()
	s.handler = s.summarizeHandler()
	return s, nil
}

// classifyRunError maps an executor Run error to an outcome class:
// instruction-limit exhaustion means the test case did not terminate
// (TimedOut); any other executor error is a crash whose message must be
// preserved for triage.
func classifyRunError(err error) (timedOut bool, crashMsg string) {
	if errors.Is(err, exec.ErrTimeout) {
		return true, ""
	}
	return false, err.Error()
}

// Run executes one bytestream test case and extracts its signature into
// a fresh slice the caller owns. Decoder crashes (the modelled
// sail-riscv defect) are captured as a crashed outcome rather than
// propagating the panic.
func (s *Simulator) Run(bs []byte) Outcome { return s.RunInto(bs, nil) }

// RunInto is Run, except that a completed run writes its signature into
// sig when sig has room for the platform's SigWords: Outcome.Signature
// then aliases sig, and the run allocates nothing. With less room it
// allocates the signature, as Run does.
func (s *Simulator) RunInto(bs []byte, sig []uint32) Outcome {
	if err := s.start(bs, nil); err != nil {
		return Outcome{Crashed: true, CrashMsg: err.Error()}
	}
	return s.finish(nil, sig)
}

// RunHooked is Run with a coverage hook attached (the fuzzing phase).
// The run reuses the simulator's hart and executor. It starts at the
// entry state, skipping the template's input-independent prefix, and
// writes the signature from the hart when it reaches the shutdown
// sequence, unless the hook has to watch them execute (see
// Simulator.start and Simulator.takeExit); a trap that enters the
// handler at its base takes the handler's path without executing it
// when the hook allows (Simulator.takeTrap). Under a skipper it builds
// no signature at all and allocates nothing.
func (s *Simulator) RunHooked(bs []byte, hook exec.Hook) Outcome {
	if err := s.start(bs, hook); err != nil {
		return Outcome{Crashed: true, CrashMsg: err.Error()}
	}
	return s.finish(hook, nil)
}

// finish runs a started run to its outcome, writing the signature into
// sig as RunInto does.
func (s *Simulator) finish(hook exec.Hook, sig []uint32) (out Outcome) {
	e := &s.ex
	defer func() {
		if r := recover(); r != nil {
			out = Outcome{Crashed: true, CrashMsg: fmt.Sprint(r), Insts: e.InstCount, Traps: e.TrapCount}
		}
	}()
	exited, err := s.run(hook)
	out = Outcome{Insts: e.InstCount, Traps: e.TrapCount}
	if err != nil {
		out.TimedOut, out.CrashMsg = classifyRunError(err)
		out.Crashed = !out.TimedOut
		return out
	}
	if _, ok := hook.(skipper); ok {
		// A collector reads coverage only (see skipper). The signature
		// area is part of the loaded template, so reading it cannot
		// fail, and leaving it unread changes no other field.
		return out
	}
	if out.Signature, err = s.signature(sig, exited); err != nil {
		out.Crashed, out.CrashMsg = true, err.Error()
	}
	return out
}

// signature writes a completed run's signature into sig when it has room
// for the platform's words, into a fresh slice otherwise, and returns
// it: through the exit summary from the hart when the summary stood for
// the dump, from the image otherwise.
func (s *Simulator) signature(sig []uint32, exited bool) ([]uint32, error) {
	n := s.Platform.SigWords()
	if len(sig) < n {
		sig = make([]uint32, n)
	}
	sig = sig[:n]
	if exited {
		s.exit.fill(sig, &s.cpu, s.img.Mem)
	} else if err := template.ReadSignature(s.img.Mem, s.Platform, sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// run steps the executor until it halts, as Executor.Run does, except
// that it hands a handler path to the handler summary when takeTrap
// allows and the shutdown sequence to the exit summary when takeExit
// allows; exited reports the latter.
func (s *Simulator) run(hook exec.Hook) (exited bool, err error) {
	e := &s.ex
	for !e.Halted {
		if e.InstCount >= s.Limit {
			return false, exec.ErrTimeout
		}
		pc := s.cpu.PC
		if s.exit != nil && pc == s.exit.addr && s.takeExit(hook) {
			return true, nil
		}
		if s.handler != nil && pc == s.handler.base && s.takeTrap(hook) {
			continue
		}
		e.Step()
	}
	return false, nil
}

var (
	_ HookedSim = (*Simulator)(nil)
	_ IntoSim   = (*Simulator)(nil)
)
