// Package hart models the architectural state of a single RV32 hart:
// integer and floating-point register files, the program counter, the
// machine-mode CSR file, the trap mechanism and the LR/SC reservation.
package hart

import (
	"rvnegtest/internal/isa"
	"rvnegtest/internal/softfloat"
)

// Exception cause codes (mcause values for synchronous exceptions).
const (
	CauseMisalignedFetch    = 0
	CauseFetchAccessFault   = 1
	CauseIllegalInstruction = 2
	CauseBreakpoint         = 3
	CauseMisalignedLoad     = 4
	CauseLoadAccessFault    = 5
	CauseMisalignedStore    = 6
	CauseStoreAccessFault   = 7
	CauseECallU             = 8
	CauseECallS             = 9
	CauseECallM             = 11
)

// CSR addresses used by this model.
const (
	CSRFflags    = 0x001
	CSRFrm       = 0x002
	CSRFcsr      = 0x003
	CSRMstatus   = 0x300
	CSRMisa      = 0x301
	CSRMie       = 0x304
	CSRMtvec     = 0x305
	CSRMscratch  = 0x340
	CSRMepc      = 0x341
	CSRMcause    = 0x342
	CSRMtval     = 0x343
	CSRMip       = 0x344
	CSRMcycle    = 0xb00
	CSRMinstret  = 0xb02
	CSRMcycleH   = 0xb80
	CSRMinstretH = 0xb82
	CSRMvendorid = 0xf11
	CSRMarchid   = 0xf12
	CSRMimpid    = 0xf13
	CSRMhartid   = 0xf14
)

// mstatus fields.
const (
	MstatusMIE  = 1 << 3
	MstatusMPIE = 1 << 7
	MstatusFS   = 3 << 13 // floating point unit status
	MstatusMPP  = 3 << 11
)

// FS states within mstatus.FS.
const (
	FSOff     = 0
	FSInitial = 1 << 13
	FSClean   = 2 << 13
	FSDirty   = 3 << 13
)

// Quirks are seeded privileged-architecture defects, modelling the
// trap/CSR bug classes real simulators exhibit (the envelope the
// user-level suite deliberately filters out and the trap suite targets).
// All of them are invisible to the user-level template: it never reads
// mtval, never executes MRET, writes an aligned direct-mode mtvec, and
// only touches in-mask mstatus bits.
type Quirks struct {
	// MtvalZero: traps always write mtval = 0 instead of the faulting
	// value (legal for some exceptions, a defect for others — and a
	// divergence either way).
	MtvalZero bool
	// VectoredSyncTrap: when mtvec selects vectored mode (bit 0 set),
	// synchronous exceptions erroneously dispatch to base + 4×cause.
	// The specification vectors interrupts only; synchronous exceptions
	// always use the base.
	VectoredSyncTrap bool
	// MRETIgnoresMPIE: MRET fails to restore MIE from MPIE (and to set
	// MPIE), leaving the interrupt-enable stack as the trap left it.
	MRETIgnoresMPIE bool
	// CSRWriteNoMask: mstatus writes skip WARL masking, so reserved
	// bits stick and read back.
	CSRWriteNoMask bool
}

// Hart is the architectural state.
type Hart struct {
	X  [isa.NumRegs]uint32
	F  [isa.NumRegs]uint64 // 64-bit with NaN boxing when D is present
	PC uint32

	Cfg isa.Config

	// Machine-mode CSRs.
	Mstatus  uint32
	Mtvec    uint32
	Mscratch uint32
	Mepc     uint32
	Mcause   uint32
	Mtval    uint32
	Mie      uint32
	Mip      uint32
	Mcycle   uint64
	Minstret uint64
	Fflags   uint8
	Frm      uint8

	// LR/SC reservation.
	ResValid bool
	ResAddr  uint32

	// HardwireCounters makes mcycle/minstret read as zero — a legal
	// platform choice the privileged specification allows (paper section
	// VI: "the performance counter ... can be hardwired to zero"), used
	// by the CSR capability-selection machinery.
	HardwireCounters bool

	// Quirks are the seeded privileged-architecture defects of the
	// simulator variant this hart models; zero for a faithful hart.
	Quirks Quirks
}

// New returns a hart reset for the given configuration.
func New(cfg isa.Config) *Hart {
	h := &Hart{Cfg: cfg}
	h.Reset()
	return h
}

// Reset clears the architectural state (PC is set by the loader);
// platform wiring (configuration, hardwired counters) survives.
func (h *Hart) Reset() {
	*h = Hart{Cfg: h.Cfg, HardwireCounters: h.HardwireCounters, Quirks: h.Quirks}
	if h.Cfg.HasFP() {
		h.Mstatus = FSInitial
	}
}

// ReadX reads an integer register (x0 reads as zero).
func (h *Hart) ReadX(r isa.Reg) uint32 {
	if r == 0 {
		return 0
	}
	return h.X[r]
}

// WriteX writes an integer register (writes to x0 are discarded).
func (h *Hart) WriteX(r isa.Reg, v uint32) {
	if r != 0 {
		h.X[r] = v
	}
}

// ReadF32 reads a floating-point register as binary32, applying the
// NaN-boxing rule when the D extension is present.
func (h *Hart) ReadF32(r isa.Reg) uint32 {
	if h.Cfg.Has(isa.ExtD) {
		return softfloat.Unbox32(h.F[r])
	}
	return uint32(h.F[r])
}

// WriteF32 writes a binary32 value to a floating-point register, boxing it
// when the D extension is present, and marks the FPU dirty.
func (h *Hart) WriteF32(r isa.Reg, v uint32) {
	if h.Cfg.Has(isa.ExtD) {
		h.F[r] = softfloat.Box32(v)
	} else {
		h.F[r] = uint64(v)
	}
	h.Mstatus |= FSDirty
}

// ReadF64 reads a floating-point register as binary64.
func (h *Hart) ReadF64(r isa.Reg) uint64 { return h.F[r] }

// WriteF64 writes a binary64 value and marks the FPU dirty.
func (h *Hart) WriteF64(r isa.Reg, v uint64) {
	h.F[r] = v
	h.Mstatus |= FSDirty
}

// FPEnabled reports whether floating-point instructions may execute
// (extension present and mstatus.FS not Off).
func (h *Hart) FPEnabled() bool {
	return h.Cfg.HasFP() && h.Mstatus&MstatusFS != FSOff
}

// AccrueFlags ORs floating-point exception flags into fflags.
func (h *Hart) AccrueFlags(fl softfloat.Flags) {
	if fl != 0 {
		h.Fflags |= uint8(fl)
		h.Mstatus |= FSDirty
	}
}

// Trap enters the machine-mode trap handler for a synchronous exception.
func (h *Hart) Trap(cause uint32, tval uint32) {
	// mepc bit 0 is hardwired to zero; mask here exactly as the CSR-write
	// path does, so an odd faulting PC reads back even and MRet returns
	// to the same address a software mepc write would produce.
	h.Mepc = h.PC &^ 1
	h.Mcause = cause
	if h.Quirks.MtvalZero {
		h.Mtval = 0
	} else {
		h.Mtval = tval
	}
	// Save and clear MIE, record the previous privilege (always M here).
	st := h.Mstatus
	if st&MstatusMIE != 0 {
		st |= MstatusMPIE
	} else {
		st &^= MstatusMPIE
	}
	st &^= MstatusMIE
	st |= MstatusMPP
	h.Mstatus = st
	// Direct mode: the low two mtvec bits select vectoring; synchronous
	// exceptions always use the base. The VectoredSyncTrap quirk applies
	// the interrupt vectoring rule to exceptions too.
	base := h.Mtvec &^ 3
	if h.Quirks.VectoredSyncTrap && h.Mtvec&1 != 0 {
		base += 4 * cause
	}
	h.PC = base
}

// MRet returns from a machine-mode trap.
func (h *Hart) MRet() {
	if !h.Quirks.MRETIgnoresMPIE {
		st := h.Mstatus
		if st&MstatusMPIE != 0 {
			st |= MstatusMIE
		} else {
			st &^= MstatusMIE
		}
		st |= MstatusMPIE
		h.Mstatus = st
	}
	// mepc is masked on every write path, but mask the return target too
	// so the three agree even if a future CSR grows an unmasked path.
	h.PC = h.Mepc &^ 1
}

// CSRError distinguishes illegal CSR accesses.
type CSRError struct{ Addr uint16 }

func (e *CSRError) Error() string { return "hart: illegal CSR access " + isa.CSRName(e.Addr) }

// csrErrors holds the error of every 12-bit CSR address, so an illegal
// access, which the executor turns into a trap and may take on every
// run, allocates nothing.
var csrErrors = func() (t [1 << 12]CSRError) {
	for i := range t {
		t[i].Addr = uint16(i)
	}
	return t
}()

func csrError(addr uint16) error {
	if int(addr) < len(csrErrors) {
		return &csrErrors[addr]
	}
	return &CSRError{addr}
}

// ReadCSR returns the CSR value, or an error if the CSR does not exist (or
// the FPU CSRs are accessed with the FPU off/absent).
func (h *Hart) ReadCSR(addr uint16) (uint32, error) {
	switch addr {
	case CSRFflags:
		if !h.FPEnabled() {
			return 0, csrError(addr)
		}
		return uint32(h.Fflags), nil
	case CSRFrm:
		if !h.FPEnabled() {
			return 0, csrError(addr)
		}
		return uint32(h.Frm), nil
	case CSRFcsr:
		if !h.FPEnabled() {
			return 0, csrError(addr)
		}
		return uint32(h.Frm)<<5 | uint32(h.Fflags), nil
	case CSRMstatus:
		return h.Mstatus, nil
	case CSRMisa:
		return h.Cfg.MISA(), nil
	case CSRMie:
		return h.Mie, nil
	case CSRMtvec:
		return h.Mtvec, nil
	case CSRMscratch:
		return h.Mscratch, nil
	case CSRMepc:
		return h.Mepc, nil
	case CSRMcause:
		return h.Mcause, nil
	case CSRMtval:
		return h.Mtval, nil
	case CSRMip:
		return h.Mip, nil
	case CSRMcycle:
		if h.HardwireCounters {
			return 0, nil
		}
		return uint32(h.Mcycle), nil
	case CSRMinstret:
		if h.HardwireCounters {
			return 0, nil
		}
		return uint32(h.Minstret), nil
	case CSRMcycleH:
		if h.HardwireCounters {
			return 0, nil
		}
		return uint32(h.Mcycle >> 32), nil
	case CSRMinstretH:
		if h.HardwireCounters {
			return 0, nil
		}
		return uint32(h.Minstret >> 32), nil
	case CSRMvendorid, CSRMarchid, CSRMimpid, CSRMhartid:
		return 0, nil
	}
	return 0, csrError(addr)
}

// WriteCSR writes a CSR, applying WARL masking. Writes to read-only CSRs
// (address bits [11:10] == 11) are illegal.
func (h *Hart) WriteCSR(addr uint16, v uint32) error {
	if addr>>10 == 3 {
		return csrError(addr)
	}
	switch addr {
	case CSRFflags:
		if !h.FPEnabled() {
			return csrError(addr)
		}
		h.Fflags = uint8(v & 0x1f)
		h.Mstatus |= FSDirty
	case CSRFrm:
		if !h.FPEnabled() {
			return csrError(addr)
		}
		h.Frm = uint8(v & 0x7)
		h.Mstatus |= FSDirty
	case CSRFcsr:
		if !h.FPEnabled() {
			return csrError(addr)
		}
		h.Fflags = uint8(v & 0x1f)
		h.Frm = uint8(v >> 5 & 0x7)
		h.Mstatus |= FSDirty
	case CSRMstatus:
		if h.Quirks.CSRWriteNoMask {
			h.Mstatus = v
			break
		}
		mask := uint32(MstatusMIE | MstatusMPIE | MstatusMPP)
		if h.Cfg.HasFP() {
			mask |= MstatusFS
		}
		h.Mstatus = h.Mstatus&^mask | v&mask
	case CSRMisa:
		// WARL: writes ignored (fixed configuration).
	case CSRMie:
		h.Mie = v & 0x888 // MSIE/MTIE/MEIE
	case CSRMtvec:
		h.Mtvec = v &^ 2 // direct or vectored; bit 1 reserved
	case CSRMscratch:
		h.Mscratch = v
	case CSRMepc:
		h.Mepc = v &^ 1
	case CSRMcause:
		h.Mcause = v
	case CSRMtval:
		h.Mtval = v
	case CSRMip:
		// Machine-level interrupt pending bits are read-only here.
	case CSRMcycle:
		h.Mcycle = h.Mcycle&^uint64(0xffffffff) | uint64(v)
	case CSRMinstret:
		h.Minstret = h.Minstret&^uint64(0xffffffff) | uint64(v)
	case CSRMcycleH:
		h.Mcycle = h.Mcycle&0xffffffff | uint64(v)<<32
	case CSRMinstretH:
		h.Minstret = h.Minstret&0xffffffff | uint64(v)<<32
	default:
		return csrError(addr)
	}
	return nil
}

// DynRM resolves an instruction rounding-mode field to an actual rounding
// mode, reporting false for reserved encodings (illegal instruction).
func (h *Hart) DynRM(field uint8) (softfloat.RM, bool) {
	rm := softfloat.RM(field)
	if rm == softfloat.DYN {
		rm = softfloat.RM(h.Frm)
	}
	return rm, rm.Valid()
}
