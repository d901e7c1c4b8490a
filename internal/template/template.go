// Package template implements the compliance test-case template of the
// paper (section IV-B): a platform-independent assembler source that
// initializes the core, injects a fuzzer-generated bytestream into the
// test body, and dumps a register signature on completion — whether the
// body runs to the end or traps.
//
// The template follows the official compliance-test conventions:
//
//   - registers x0..x29 are loaded from hardcoded data values, so they are
//     equal on every platform and usable for comparable computation;
//   - x30 and x31 point into the middle of a scratch data window, so they
//     are usable as load/store base registers for any immediate offset in
//     [-2048, 2047];
//   - the body is a list of jump-to-end slots that raw .word declarations
//     overwrite with the bytestream;
//   - the body end increments x26 (distinguishing trapping from
//     non-trapping executions) and falls into the shutdown sequence;
//   - the trap handler records mcause into the signature and enters the
//     same shutdown sequence, bypassing the x26 increment;
//   - the shutdown sequence stores x0..x29 (x30/x31 are platform usable
//     scratch), a sentinel word, and the FP register file when the target
//     configuration has floating point (the __riscv_fdiv-style conditional
//     of the paper, expressed as .ifdef RVTEST_FP / RVTEST_FP_D), then
//     halts by storing to the halt address.
//
// Two template families exist. FamilyUser is the paper's template exactly
// as described above: a trap ends the test (the handler records mcause and
// jumps to the dump). FamilyTrap embraces traps instead: its machine-mode
// handler appends a (tagged mcause, mepc, mtval, mstatus) record plus a
// running trap counter into a dedicated signature region, advances mepc to
// the next word boundary, and MRETs back into the body, so a single test
// case can take — and compare — many privileged round trips.
package template

import (
	"bytes"
	"fmt"
	"strings"
	"sync"

	"rvnegtest/internal/asm"
	"rvnegtest/internal/elf"
	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// Family selects the test-case template family.
type Family uint8

const (
	// FamilyUser is the paper's user-level template: forbidden/privileged
	// instructions are filtered out and any trap terminates the test.
	FamilyUser Family = iota
	// FamilyTrap is the trap-rich template: the handler records trap
	// tuples into a dedicated signature region and resumes past the
	// faulting slot, so CSR ops, EBREAK, unaligned accesses and illegal
	// encodings become desired events rather than terminators.
	FamilyTrap
)

// String names the family ("user", "trap").
func (f Family) String() string {
	if f == FamilyTrap {
		return "trap"
	}
	return "user"
}

// ParseFamily resolves a family name.
func ParseFamily(s string) (Family, bool) {
	switch s {
	case "user":
		return FamilyUser, true
	case "trap":
		return FamilyTrap, true
	}
	return FamilyUser, false
}

// Layout fixes the memory map of a platform (the linker-script part).
type Layout struct {
	MemBase  uint32
	MemSize  uint32
	TextBase uint32
	DataBase uint32
	DataMid  uint32 // value loaded into x30/x31
	SigAddr  uint32 // signature region
	HaltAddr uint32 // magic store address that halts simulation
	Slots    int    // jump slots in the injection area

	// TrapSigAddr is the trap-record signature region (FamilyTrap only):
	// one counter word followed by TrapRecords records of four words each
	// (tagged mcause, mepc, mtval, mstatus).
	TrapSigAddr uint32
	TrapRecords int
}

// DefaultLayout is the 32 KiB memory map used throughout the experiments
// (the paper uses a 32 KB simulator memory).
var DefaultLayout = Layout{
	MemBase:  0x0000,
	MemSize:  0x8000,
	TextBase: 0x0000,
	DataBase: 0x4000,
	DataMid:  0x5800,
	SigAddr:  0x6800,
	HaltAddr: 0x7ff0,
	Slots:    20,

	TrapSigAddr: 0x6980, // directly after sig_begin (128 B) + sig_fp (256 B)
	TrapRecords: 16,
}

// TrapSigWords is the trap-record region length in 32-bit words: the trap
// counter plus four words per record.
func (l Layout) TrapSigWords() int { return 1 + 4*l.TrapRecords }

// MaxBytes is the largest bytestream the injection area accepts.
func (l Layout) MaxBytes() int { return l.Slots * 4 }

// Platform couples a layout with an ISA configuration and the
// platform-specific behaviours that are legal under the specification.
type Platform struct {
	Layout Layout
	Cfg    isa.Config
	// Family selects the template family (zero value: the user-level
	// template, byte-identical to the pre-family layout).
	Family Family
	// TrapUnaligned: misaligned data accesses trap instead of being
	// performed (both are specification-compliant platform choices).
	TrapUnaligned bool
	// WFIHalts: WFI stalls forever instead of returning immediately
	// (legal; the reason the filter forbids WFI).
	WFIHalts bool
	// EbreakHalts: EBREAK terminates simulation without a signature dump
	// (a debugger-style special semantic; why the filter forbids EBREAK).
	EbreakHalts bool
	// CountersHardwired: mcycle/minstret read as zero (legal per the
	// privileged specification; relevant to CSR capability selection).
	CountersHardwired bool
}

// Defines returns the conditional-assembly symbols for this platform,
// mirroring the -march-derived compiler defines of the paper.
func (p Platform) Defines() map[string]int64 {
	d := map[string]int64{}
	if p.Cfg.HasFP() {
		d["RVTEST_FP"] = 1
	}
	if p.Cfg.Has(isa.ExtD) {
		d["RVTEST_FP_D"] = 1
	}
	return d
}

// BaseSigWords returns the user-level signature length in 32-bit words:
// 30 x-registers, the mcause slot and a sentinel, plus the FP register
// file when floating point is configured.
func (p Platform) BaseSigWords() int {
	n := 32
	if p.Cfg.Has(isa.ExtD) {
		n += 64
	} else if p.Cfg.Has(isa.ExtF) {
		n += 32
	}
	return n
}

// SigWords returns the full signature length for the platform; the trap
// family appends the trap-record region to the user-level words.
func (p Platform) SigWords() int {
	n := p.BaseSigWords()
	if p.Family == FamilyTrap {
		n += p.Layout.TrapSigWords()
	}
	return n
}

// PlatformFor builds the canonical platform for a family on the default
// layout: the user family mirrors the paper's setup; the trap family traps
// on unaligned accesses (so they are observable events) and keeps EBREAK
// and WFI as ordinary trapping instructions.
func PlatformFor(fam Family, cfg isa.Config) Platform {
	p := Platform{Layout: DefaultLayout, Cfg: cfg, Family: fam}
	if fam == FamilyTrap {
		p.TrapUnaligned = true
	}
	return p
}

// XInit is the hardcoded initialization table for x0..x29 (x0 stays zero
// architecturally). The values cover the coverage-rule corner values
// (0, 1, -1, MIN, MAX) plus patterned data.
var XInit = [30]uint32{
	0x00000000, 0x00000001, 0xffffffff, 0x7fffffff, 0x80000000,
	0x00000002, 0x00000004, 0x00000080, 0x55555555, 0xaaaaaaaa,
	0x0000ffff, 0xffff0000, 0x00000003, 0x0000001f, 0x00000020,
	0x12345678, 0xdeadbeef, 0xcafebabe, 0x0badf00d, 0xfffffffe,
	0x40000000, 0x3fffffff, 0x00010000, 0xfffff800, 0x000007ff,
	0x00000800, 0x0000000a, 0x8000cafe, 0x00000000, 0x00000064,
}

// FInit is the hardcoded initialization table for f0..f31 (64-bit images;
// NaN-boxed singles and doubles mixed, covering zero, one, infinities,
// NaNs and subnormals).
var FInit = [32]uint64{
	0xffffffff00000000, // +0.0f boxed
	0xffffffff3f800000, // 1.0f boxed
	0xffffffffbf800000, // -1.0f boxed
	0xffffffff7f800000, // +inf f boxed
	0xffffffff7fc00000, // qNaN f boxed
	0xffffffff00000001, // min subnormal f boxed
	0xffffffff7f7fffff, // max finite f boxed
	0xffffffff3fc00000, // 1.5f boxed
	0x3ff0000000000000, // 1.0
	0xbff0000000000000, // -1.0
	0x0000000000000000, // +0.0
	0x8000000000000000, // -0.0
	0x7ff0000000000000, // +inf
	0xfff0000000000000, // -inf
	0x7ff8000000000000, // qNaN
	0x7ff0000000000001, // sNaN
	0x0000000000000001, // min subnormal
	0x000fffffffffffff, // max subnormal
	0x0010000000000000, // min normal
	0x7fefffffffffffff, // max finite
	0x4000000000000000, // 2.0
	0x3fd5555555555555, // ~1/3
	0x400921fb54442d18, // pi
	0x3ff0000000000001, // 1 + ulp
	0xffffffff80000000, // -0.0f boxed
	0xffffffffff800000, // -inf f boxed
	0xffffffff7f800001, // sNaN f boxed
	0x4330000000000000, // 2^52
	0xc330000000000000, // -2^52
	0x3cb0000000000000, // 2^-52
	0x41f0000000000000, // 2^32
	0x3fe0000000000000, // 0.5
}

// SourceFamily renders the complete assembler source for a bytestream in
// the given template family. The same source assembles for every
// platform; platform variation enters only through Options.Defines and
// the layout equates. FamilyTrap swaps in the recording trap handler and
// appends the trap-record signature region. An oversize bytestream (e.g.
// a hostile corpus entry fed to a resumed campaign) is an error, not a
// panic.
func SourceFamily(bs []byte, l Layout, fam Family) (string, error) {
	if len(bs) > l.MaxBytes() {
		return "", fmt.Errorf("template: bytestream of %d bytes exceeds the %d-byte injection area", len(bs), l.MaxBytes())
	}
	if fam == FamilyTrap {
		if l.TrapRecords <= 0 || l.TrapRecords > 511 {
			return "", fmt.Errorf("template: trap family needs 1..511 trap records, layout has %d", l.TrapRecords)
		}
		if l.TrapSigAddr < l.SigAddr+384 {
			return "", fmt.Errorf("template: trap signature region %#x overlaps the user signature region", l.TrapSigAddr)
		}
	}
	var b strings.Builder
	w := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }

	w("# RISC-V compliance test case (fuzzer generated)")
	w("# bytestream: %d bytes", len(bs))
	if fam == FamilyTrap {
		w("# family: trap")
	}
	w(".equ HALT_ADDR, %#x", l.HaltAddr)
	// The compliance-format macros (the official suite marks begin/end of
	// code and the halt sequence with platform-provided macros; these are
	// this platform's definitions).
	w(".macro RV_COMPLIANCE_HALT")
	w("\tli   x30, HALT_ADDR")
	w("\tsw   x0, 0(x30)")
	w("\tj    .                  # unreachable")
	w(".endm")
	w(".macro RVTEST_SAVE_REG n")
	w("\tsw   x\\n, 4*\\n(x31)")
	w(".endm")
	w(".text")
	w(".globl _start")
	w("_start:")
	w("\tla   x31, trap_handler")
	w("\tcsrw mtvec, x31")
	w(".ifdef RVTEST_FP")
	w("\tli   x31, 0x2000        # mstatus.FS = Initial")
	w("\tcsrs mstatus, x31")
	w("\tcsrwi fcsr, 0")
	w("\tla   x31, init_fregs")
	w(".ifdef RVTEST_FP_D")
	for i := 0; i < 32; i++ {
		w("\tfld  f%d, %d(x31)", i, i*8)
	}
	w(".else")
	for i := 0; i < 32; i++ {
		w("\tflw  f%d, %d(x31)", i, i*8)
	}
	w(".endif")
	w(".endif")
	w("\tla   x31, init_regs")
	for i := 1; i <= 29; i++ {
		w("\tlw   x%d, %d(x31)", i, i*4)
	}
	w("\tla   x30, data_mid")
	w("\tla   x31, data_mid")
	w("body_begin:")
	// Injection area: bytestream words first, then jump-to-end slots.
	nWords := (len(bs) + 3) / 4
	for i := 0; i < nWords; i++ {
		var word uint32
		for j := 0; j < 4; j++ {
			if i*4+j < len(bs) {
				word |= uint32(bs[i*4+j]) << (8 * j)
			}
		}
		w("\t.word %#08x", word)
	}
	for i := nWords; i < l.Slots; i++ {
		w("\tj    body_end")
	}
	w("body_end:")
	w("\taddi x26, x26, 1")
	w("dump:")
	w("\tla   x31, sig_begin")
	for i := 0; i <= 29; i++ {
		w("\tRVTEST_SAVE_REG %d", i)
	}
	w("\tli   x30, 0xdeadbeef")
	w("\tsw   x30, 124(x31)")
	w(".ifdef RVTEST_FP")
	w("\tla   x31, sig_fp")
	w(".ifdef RVTEST_FP_D")
	for i := 0; i < 32; i++ {
		w("\tfsd  f%d, %d(x31)", i, i*8)
	}
	w(".else")
	for i := 0; i < 32; i++ {
		w("\tfsw  f%d, %d(x31)", i, i*4)
	}
	w(".endif")
	w(".endif")
	w("\tRV_COMPLIANCE_HALT")
	w(".align 2")
	if fam == FamilyTrap {
		// The trap-family handler records a (tagged mcause, mepc, mtval,
		// mstatus) tuple, counts the trap, advances mepc to the next word
		// boundary and MRETs back into the body. It preserves every
		// register: x31 goes to mscratch, x30 to a memory scratch slot.
		//
		// The entry is a jump table: a faithful simulator always enters at
		// the base (synchronous exceptions are never vectored), while the
		// vectored-sync-trap defect lands on base+4×cause — so the entry
		// path is itself observable, tagged into bit 0 of the recorded
		// cause word.
		w("trap_handler:")
		w("\tj    handler_entry      # base: correct synchronous dispatch")
		for cause := 1; cause <= 11; cause++ {
			w("\tj    handler_vec        # base+%d: erroneously vectored cause %d", 4*cause, cause)
		}
		w("handler_vec:")
		w("\tcsrw mscratch, x31")
		w("\tla   x31, trap_tmp")
		w("\tsw   x30, 0(x31)")
		w("\tcsrr x30, mcause")
		w("\tslli x30, x30, 1")
		w("\tori  x30, x30, 1        # tag: arrived through a vector slot")
		w("\tj    handler_record")
		w("handler_entry:")
		w("\tcsrw mscratch, x31")
		w("\tla   x31, trap_tmp")
		w("\tsw   x30, 0(x31)")
		w("\tcsrr x30, mcause")
		w("\tslli x30, x30, 1        # tag bit 0 clear: direct entry")
		w("handler_record:")
		w("\tsw   x30, 4(x31)        # stash the tagged cause")
		w("\tla   x31, sig_trap")
		w("\tlw   x30, 0(x31)")
		w("\taddi x30, x30, 1")
		w("\tsw   x30, 0(x31)        # trap counter")
		w("\tsltiu x30, x30, %d", l.TrapRecords+1)
		w("\tbeq  x30, x0, trap_resume # record area full: count only")
		w("\tlw   x30, 0(x31)")
		w("\taddi x30, x30, -1")
		w("\tslli x30, x30, 4        # 16-byte records")
		w("\tadd  x31, x31, x30")
		w("\tla   x30, trap_tmp")
		w("\tlw   x30, 4(x30)")
		w("\tsw   x30, 4(x31)        # tagged mcause")
		w("\tcsrr x30, mepc")
		w("\tsw   x30, 8(x31)")
		w("\tcsrr x30, mtval")
		w("\tsw   x30, 12(x31)")
		w("\tcsrr x30, mstatus")
		w("\tsw   x30, 16(x31)")
		w("trap_resume:")
		w("\tcsrr x30, mepc")
		w("\tandi x30, x30, -4")
		w("\taddi x30, x30, 4        # resume at the next word boundary")
		w("\tcsrw mepc, x30")
		w("\tla   x31, trap_tmp")
		w("\tlw   x30, 0(x31)        # restore x30")
		w("\tcsrr x31, mscratch      # restore x31")
		w("\tmret")
	} else {
		w("trap_handler:")
		w("\tcsrr x30, mcause")
		w("\tla   x31, sig_begin")
		w("\tsw   x30, 120(x31)")
		w("\tj    dump")
	}

	// Data section.
	w(".data")
	w("init_regs:")
	for i := 0; i < 30; i += 2 {
		w("\t.word %#08x, %#08x", XInit[i], XInit[i+1])
	}
	w(".align 3")
	w("init_fregs:")
	for i := 0; i < 32; i += 2 {
		w("\t.dword %#016x, %#016x", FInit[i], FInit[i+1])
	}
	// Scratch window around data_mid, pre-filled with a byte pattern so
	// loads observe deterministic, non-trivial values.
	w("\t.zero %#x - .", l.DataMid-2048)
	w("scratch_begin:")
	for i := 0; i < 1024; i += 4 {
		base := l.DataMid - 2048 + uint32(i*4)
		w("\t.word %#08x, %#08x, %#08x, %#08x",
			scratchWord(base), scratchWord(base+4), scratchWord(base+8), scratchWord(base+12))
	}
	w(".equ data_mid, scratch_begin + 2048")
	w("\t.zero %#x - .", l.SigAddr)
	w("sig_begin:")
	w("\t.zero 128")
	w("sig_fp:")
	w("\t.zero 256")
	if fam == FamilyTrap {
		if l.TrapSigAddr != l.SigAddr+384 {
			w("\t.zero %#x - .", l.TrapSigAddr)
		}
		w("sig_trap:")
		w("\t.zero %d", 4*l.TrapSigWords())
		w("trap_tmp:")
		w("\t.zero 8")
	}
	return b.String(), nil
}

// scratchWord is the deterministic fill pattern of the scratch window.
func scratchWord(addr uint32) uint32 {
	x := addr*0x9e3779b9 + 0x7f4a7c15
	x ^= x >> 15
	return x
}

// Build assembles the template source for a bytestream on a platform.
func Build(bs []byte, p Platform) (*elf.Image, error) {
	src, err := SourceFamily(bs, p.Layout, p.Family)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(src, asm.Options{
		TextBase: p.Layout.TextBase,
		DataBase: p.Layout.DataBase,
		Defines:  p.Defines(),
	})
	if err != nil {
		return nil, fmt.Errorf("template: %w", err)
	}
	return elf.FromProgram(prog), nil
}

// Image is a pre-compiled, pre-loaded template ready for repeated
// bytestream injection (the paper's fuzzing-phase optimization: the ELF is
// built once, and the simulator memory is restored between runs).
type Image struct {
	Platform   Platform
	Mem        *mem.Memory
	Entry      uint32
	InjectAddr uint32
	// ExitAddr is the shutdown sequence (dump:) that the body and the
	// handler fall into.
	ExitAddr uint32
}

// Preload returns a fresh image of the empty template on p, its memory
// loaded and snapshotted. The template is assembled once per platform and
// process (see assembled); every call, the first included, loads what
// that assembly produced into a new memory, so each image is independent
// of every other.
func Preload(p Platform) (*Image, error) {
	a, err := assembled(p)
	if err != nil {
		return nil, err
	}
	m := mem.New(p.Layout.MemBase, p.Layout.MemSize)
	for _, r := range a.runs {
		if err := m.LoadImage(r.addr, r.data); err != nil {
			return nil, err
		}
	}
	m.Snapshot()
	return &Image{Platform: p, Mem: m, Entry: a.entry, InjectAddr: a.inject, ExitAddr: a.exit}, nil
}

// preassembly is what assembling a platform's empty template produced:
// the loaded memory's non-zero bytes and the entry, body_begin and dump:
// addresses.
type preassembly struct {
	runs                []byteRun
	entry, inject, exit uint32
}

// byteRun is a stretch of loaded memory starting at addr.
type byteRun struct {
	addr uint32
	data []byte
}

// preassemblies memoizes assemble per Platform for the life of the
// process. Its keys are the platforms a process builds (six on the
// default layout), so it needs no eviction; a failed assembly is not
// stored.
var preassemblies sync.Map // Platform -> *preassembly

// assembled returns p's memoized assembly, assembling it on first use.
// Callers racing on a new platform may each assemble it; all of them get
// the one that was stored first.
func assembled(p Platform) (*preassembly, error) {
	if a, ok := preassemblies.Load(p); ok {
		return a.(*preassembly), nil
	}
	a, err := assemble(p)
	if err != nil {
		return nil, err
	}
	stored, _ := preassemblies.LoadOrStore(p, a)
	return stored.(*preassembly), nil
}

// assemble assembles the empty template on p, loads it into a zeroed
// memory and keeps the non-zero bytes of the result.
func assemble(p Platform) (*preassembly, error) {
	src, err := SourceFamily(nil, p.Layout, p.Family)
	if err != nil {
		return nil, err
	}
	prog, err := asm.Assemble(src, asm.Options{
		TextBase: p.Layout.TextBase,
		DataBase: p.Layout.DataBase,
		Defines:  p.Defines(),
	})
	if err != nil {
		return nil, fmt.Errorf("template: %w", err)
	}
	inject, ok := prog.Symbol("body_begin")
	if !ok {
		return nil, fmt.Errorf("template: body_begin symbol missing")
	}
	exit, ok := prog.Symbol("dump")
	if !ok {
		return nil, fmt.Errorf("template: dump symbol missing")
	}
	m := mem.New(p.Layout.MemBase, p.Layout.MemSize)
	entry, err := elf.FromProgram(prog).LoadInto(m)
	if err != nil {
		return nil, err
	}
	loaded, err := m.ReadBytes(m.Base(), m.Size())
	if err != nil {
		return nil, err
	}
	return &preassembly{runs: nonZeroRuns(m.Base(), loaded), entry: entry, inject: inject, exit: exit}, nil
}

// runGap is the shortest stretch of zeros that ends a byteRun: a shorter
// one costs less kept inside the run than a run of its own would.
const runGap = 32

// nonZeroRuns returns copies of the stretches of b, loaded at base, that
// hold all of its non-zero bytes. Memory starts zeroed, so loading the
// runs into a fresh memory reproduces b.
func nonZeroRuns(base uint32, b []byte) []byteRun {
	var runs []byteRun
	for i := 0; i < len(b); {
		if b[i] == 0 {
			i++
			continue
		}
		start, end := i, i+1
		for i = end; i < len(b) && i-end < runGap; i++ {
			if b[i] != 0 {
				end = i + 1
			}
		}
		runs = append(runs, byteRun{base + uint32(start), bytes.Clone(b[start:end])})
	}
	return runs
}

// Inject restores the pristine template and writes the bytestream into the
// injection area. Unused slots keep their jump-to-end instructions.
func (im *Image) Inject(bs []byte) error {
	if len(bs) > im.Platform.Layout.MaxBytes() {
		return fmt.Errorf("template: bytestream too long (%d bytes)", len(bs))
	}
	im.Mem.Restore()
	if err := im.Mem.LoadImage(im.InjectAddr, bs); err != nil {
		return err
	}
	// The last word's bytes past the input read zero, as in the .word the
	// per-input source (Build) assembles there.
	if pad := -len(bs) & 3; pad != 0 {
		var zero [3]byte
		return im.Mem.LoadImage(im.InjectAddr+uint32(len(bs)), zero[:pad])
	}
	return nil
}

// NewExecutorCfg builds an executor over the image's memory for the
// given decoder and quirks, applying the platform behaviours, with a hart
// that implements cfg. The template image stays the one compiled for the
// *requested* configuration, so a cfg other than im.Platform.Cfg models a
// misconfigured simulator (GRIFT's RV32IMC compliance target actually
// enabling RV32GC).
func (im *Image) NewExecutorCfg(cfg isa.Config, dec *isa.Decoder, q exec.Quirks) *exec.Executor {
	cpu := hart.New(cfg)
	cpu.HardwireCounters = im.Platform.CountersHardwired
	cpu.Quirks = q.Priv
	cpu.PC = im.Entry
	e := exec.New(cpu, im.Mem, dec)
	e.Quirks = q
	e.TrapUnaligned = im.Platform.TrapUnaligned
	e.WFIHalts = im.Platform.WFIHalts
	e.EbreakHalts = im.Platform.EbreakHalts
	e.HaltAddr = im.Platform.Layout.HaltAddr
	return e
}

// Signature reads the signature region after a run into a fresh slice.
func (im *Image) Signature() ([]uint32, error) {
	sig := make([]uint32, im.Platform.SigWords())
	if err := ReadSignature(im.Mem, im.Platform, sig); err != nil {
		return nil, err
	}
	return sig, nil
}

// SigWordAddr returns the address of signature word i: the user-level
// region first, then (trap family) the trap-record region.
func (p Platform) SigWordAddr(i int) uint32 {
	if n := p.BaseSigWords(); i >= n {
		return p.Layout.TrapSigAddr + uint32(4*(i-n))
	}
	return p.Layout.SigAddr + uint32(4*i)
}

// ReadSignature reads the signature words from a memory into sig, which
// holds p.SigWords() of them: the user-level region, then (trap family)
// the trap-record region appended behind it.
func ReadSignature(m *mem.Memory, p Platform, sig []uint32) error {
	for i := range sig {
		v, err := m.Read32(p.SigWordAddr(i))
		if err != nil {
			return err
		}
		sig[i] = v
	}
	return nil
}
