package sim

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

func enc(inst isa.Inst) uint32 { return isa.MustEncode(inst) }

func stream(words ...uint32) []byte {
	var out []byte
	for _, w := range words {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

func newSim(t *testing.T, v *Variant, cfg isa.Config) *Simulator {
	t.Helper()
	s, err := New(v, template.Platform{Layout: template.DefaultLayout, Cfg: cfg})
	if err != nil {
		t.Fatalf("New(%s, %v): %v", v.Name, cfg, err)
	}
	return s
}

// diffWords compares two signatures and returns differing word indexes.
func diffWords(a, b []uint32) []int {
	var out []int
	for i := range a {
		if i < len(b) && a[i] != b[i] {
			out = append(out, i)
		}
	}
	return out
}

// expectMismatch runs a bytestream on the reference and a variant and
// requires a signature divergence.
func expectMismatch(t *testing.T, v *Variant, cfg isa.Config, bs []byte) ([]uint32, []uint32) {
	t.Helper()
	ref := newSim(t, Reference, cfg).Run(bs)
	got := newSim(t, v, cfg).Run(bs)
	if ref.Crashed || ref.TimedOut {
		t.Fatalf("reference failed: %+v", ref)
	}
	if got.Crashed || got.TimedOut {
		t.Fatalf("%s crashed/timed out unexpectedly: %+v", v.Name, got)
	}
	if d := diffWords(ref.Signature, got.Signature); len(d) == 0 {
		t.Fatalf("%s: expected signature mismatch for %x", v.Name, bs)
	}
	return ref.Signature, got.Signature
}

// expectMatch requires identical signatures.
func expectMatch(t *testing.T, v *Variant, cfg isa.Config, bs []byte) {
	t.Helper()
	ref := newSim(t, Reference, cfg).Run(bs)
	got := newSim(t, v, cfg).Run(bs)
	if ref.Crashed || got.Crashed || ref.TimedOut || got.TimedOut {
		t.Fatalf("unexpected failure: ref=%+v got=%+v", ref, got)
	}
	if d := diffWords(ref.Signature, got.Signature); len(d) != 0 {
		t.Fatalf("%s: unexpected mismatch at words %v for %x", v.Name, d, bs)
	}
}

const mcauseWord = 30 // index of the mcause slot in the signature

func TestOVPSimCustomOpcodeBug(t *testing.T) {
	// custom-0 with the special funct3 pattern: reference takes an
	// illegal-instruction trap; riscvOVPsim executes it as a NOP and the
	// body completes (x26 incremented, no mcause).
	bs := stream(0x0000400b)
	ref, got := expectMismatch(t, OVPSim, isa.RV32I, bs)
	if ref[mcauseWord] != 2 {
		t.Errorf("reference mcause = %d, want 2", ref[mcauseWord])
	}
	if got[mcauseWord] != 0 || got[26] != template.XInit[26]+1 {
		t.Errorf("ovpsim outcome: mcause=%d x26=%#x", got[mcauseWord], got[26])
	}
	// Without the special pattern both treat the word as illegal.
	expectMatch(t, OVPSim, isa.RV32I, stream(0x0000000b))
}

func TestSpikeEcallBug(t *testing.T) {
	bs := stream(0x00000073)
	ref, got := expectMismatch(t, Spike, isa.RV32I, bs)
	if got[26] != ref[26]+1 {
		t.Errorf("spike x26 = %#x, reference %#x", got[26], ref[26])
	}
	// Non-ECALL test cases agree.
	expectMatch(t, Spike, isa.RV32I, stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})))
}

func TestVPEcallMaskBug(t *testing.T) {
	// "ECALL" with rd=5: invalid encoding. Reference: illegal (cause 2).
	// VP decodes it as ECALL (cause 11).
	bs := stream(0x00000073 | 5<<7)
	ref, got := expectMismatch(t, VP, isa.RV32I, bs)
	if ref[mcauseWord] != 2 || got[mcauseWord] != 11 {
		t.Errorf("mcause: ref=%d vp=%d", ref[mcauseWord], got[mcauseWord])
	}
}

func TestVPReservedCompressedBug(t *testing.T) {
	// c.lwsp x0, 0(sp): reserved. Reference: illegal trap. VP expands it;
	// the load uses sp (x2 init value 0xffffffff), faulting with a load
	// access fault — either way the signatures diverge in mcause.
	bs := []byte{0x02, 0x40, 0, 0}
	ref, got := expectMismatch(t, VP, isa.RV32IMC, bs)
	if ref[mcauseWord] != 2 {
		t.Errorf("reference mcause = %d", ref[mcauseWord])
	}
	if got[mcauseWord] == 2 {
		t.Errorf("vp mcause = %d, want non-illegal", got[mcauseWord])
	}
	// On RV32I there is no C extension: both treat the halfword as
	// illegal and the signatures agree.
	expectMatch(t, VP, isa.RV32I, bs)
}

func TestGriftMisalignedJumpBug(t *testing.T) {
	// jal x1, +6 on RV32I: misaligned target. GRIFT updates the link
	// register before trapping.
	bs := stream(enc(isa.Inst{Op: isa.OpJAL, Rd: 1, Imm: 6}))
	ref, got := expectMismatch(t, Grift, isa.RV32I, bs)
	if ref[1] == got[1] {
		t.Error("link register must differ")
	}
	if ref[mcauseWord] != 0 || got[mcauseWord] != 0 {
		t.Errorf("mcause: ref=%d grift=%d, want 0 (both trap)", ref[mcauseWord], got[mcauseWord])
	}
	// With C enabled the jump is legal on both.
	expectMatch(t, Grift, isa.RV32IMC, bs)
}

func TestGriftIMCConfigBug(t *testing.T) {
	// An FP instruction under RV32IMC: reference traps (illegal), GRIFT's
	// misconfigured target executes it.
	bs := stream(enc(isa.Inst{Op: isa.OpFADDS, Rd: 1, Rs1: 2, Rs2: 3, RM: 0}))
	ref, got := expectMismatch(t, Grift, isa.RV32IMC, bs)
	if ref[mcauseWord] != 2 || got[mcauseWord] != 0 {
		t.Errorf("mcause: ref=%d grift=%d", ref[mcauseWord], got[mcauseWord])
	}
	// Under RV32GC the instruction is legal on both: no mismatch.
	expectMatch(t, Grift, isa.RV32GC, bs)
	// An atomic under RV32IMC likewise diverges.
	expectMismatch(t, Grift, isa.RV32IMC, stream(enc(isa.Inst{Op: isa.OpLRW, Rd: 5, Rs1: 30})))
}

func TestGriftSCWithoutReservationBug(t *testing.T) {
	// sc.w x5, x1, (x30) without a prior lr.w: reference fails the SC
	// (x5 = 1, no store); GRIFT performs it (x5 = 0).
	bs := stream(enc(isa.Inst{Op: isa.OpSCW, Rd: 5, Rs1: 30, Rs2: 1}))
	ref, got := expectMismatch(t, Grift, isa.RV32GC, bs)
	if ref[5] != 1 || got[5] != 0 {
		t.Errorf("sc.w rd: ref=%d grift=%d", ref[5], got[5])
	}
	// A properly paired LR/SC agrees on both.
	expectMatch(t, Grift, isa.RV32GC, stream(
		enc(isa.Inst{Op: isa.OpLRW, Rd: 6, Rs1: 30}),
		enc(isa.Inst{Op: isa.OpSCW, Rd: 5, Rs1: 30, Rs2: 1}),
	))
}

func TestSailLooseDecodeBug(t *testing.T) {
	// ADD with garbage funct7 (bit 30 clear): reference illegal; sail
	// executes an ADD.
	w := enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2}) | 0x13<<25
	ref, got := expectMismatch(t, Sail, isa.RV32I, stream(w))
	if ref[mcauseWord] != 2 || got[mcauseWord] != 0 {
		t.Errorf("mcause: ref=%d sail=%d", ref[mcauseWord], got[mcauseWord])
	}
	if got[5] != template.XInit[1]+template.XInit[2] {
		t.Errorf("sail executed value = %#x", got[5])
	}
}

func TestSailCrashBug(t *testing.T) {
	// The malformed compressed pattern crashes the sail decoder; the
	// harness must capture it as a crash, not a panic.
	bs := []byte{0x00, 0x84, 0, 0}
	got := newSim(t, Sail, isa.RV32IMC).Run(bs)
	if !got.Crashed {
		t.Fatalf("expected crash, got %+v", got)
	}
	ref := newSim(t, Reference, isa.RV32IMC).Run(bs)
	if ref.Crashed || ref.TimedOut {
		t.Fatalf("reference must survive: %+v", ref)
	}
	// The 32-bit malformed pattern crashes it on RV32I too (Table I shows
	// "crash" for both RV32I and RV32IMC).
	bs32 := stream(0x0000505b)
	if got := newSim(t, Sail, isa.RV32I).Run(bs32); !got.Crashed {
		t.Fatalf("expected 32-bit crash on RV32I, got %+v", got)
	}
	if ref := newSim(t, Reference, isa.RV32I).Run(bs32); ref.Crashed || ref.TimedOut {
		t.Fatalf("reference must survive the 32-bit pattern: %+v", ref)
	}
}

func TestSailNonTerminationBug(t *testing.T) {
	// Invalid branch funct3 with a negative offset and equal operands:
	// sail decodes a backward BEQ and loops forever.
	w := enc(isa.Inst{Op: isa.OpBEQ, Rs1: 0, Rs2: 0, Imm: -4})
	w = w&^(uint32(7)<<12) | 2<<12
	bs := stream(enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1}), w)
	got := newSim(t, Sail, isa.RV32I).Run(bs)
	if !got.TimedOut {
		t.Fatalf("expected timeout, got %+v", got)
	}
	ref := newSim(t, Reference, isa.RV32I).Run(bs)
	if ref.TimedOut || ref.Signature[mcauseWord] != 2 {
		t.Fatalf("reference: %+v", ref)
	}
}

func TestSupportMatrix(t *testing.T) {
	// VP and sail have no floating point: RV32GC unsupported ("/" cells).
	for _, v := range []*Variant{VP, Sail} {
		if v.Supports(isa.RV32GC) {
			t.Errorf("%s must not support RV32GC", v.Name)
		}
		if !v.Supports(isa.RV32IMC) || !v.Supports(isa.RV32I) {
			t.Errorf("%s must support I and IMC", v.Name)
		}
		if _, err := New(v, template.Platform{Layout: template.DefaultLayout, Cfg: isa.RV32GC}); err == nil {
			t.Errorf("New(%s, GC) must fail", v.Name)
		}
	}
	for _, v := range []*Variant{Reference, OVPSim, Spike, Grift} {
		if !v.Supports(isa.RV32GC) {
			t.Errorf("%s must support RV32GC", v.Name)
		}
	}
}

func TestByName(t *testing.T) {
	for _, v := range All {
		got, ok := ByName(v.Name)
		if !ok || got != v {
			t.Errorf("ByName(%s) failed", v.Name)
		}
	}
	if _, ok := ByName("qemu"); ok {
		t.Error("ByName(qemu) must fail")
	}
}

// TestVariantsAgreeOnCleanPrograms: for ordinary valid programs, every
// variant must agree with the reference (the defects are negative-testing
// defects; positive behaviour is shared).
func TestVariantsAgreeOnCleanPrograms(t *testing.T) {
	programs := [][]byte{
		stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})),
		stream(
			enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
			enc(isa.Inst{Op: isa.OpSW, Rs1: 31, Rs2: 5, Imm: 32}),
			enc(isa.Inst{Op: isa.OpLW, Rd: 6, Rs1: 31, Imm: 32}),
		),
		stream(
			enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 1, Imm: 8}),
			enc(isa.Inst{Op: isa.OpADDI, Rd: 7, Imm: 99}),
			enc(isa.Inst{Op: isa.OpXOR, Rd: 8, Rs1: 8, Rs2: 9}),
		),
		stream(0xffffffff),
	}
	for _, v := range UnderTest {
		for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC} {
			for _, bs := range programs {
				expectMatch(t, v, cfg, bs)
			}
		}
	}
}

// TestNewConcurrent builds simulators with New from separate goroutines
// and drives each through the cases (run with -race to validate that
// simulators share no mutable state, the preloaded template included):
// every outcome must equal a fresh simulator's.
func TestNewConcurrent(t *testing.T) {
	cases := [][]byte{
		stream(enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})),
		stream(enc(isa.Inst{Op: isa.OpJAL, Rd: 1, Imm: 6})),
		stream(0xffffffff),
		{0x02, 0x40, 0, 0},
	}
	want := make([]Outcome, len(cases))
	for i, bs := range cases {
		want[i] = newSim(t, Grift, isa.RV32IMC).Run(bs)
	}
	p := template.Platform{Layout: template.DefaultLayout, Cfg: isa.RV32IMC}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := New(Grift, p)
			if err != nil {
				t.Error(err)
				return
			}
			for range 4 {
				for i, bs := range cases {
					if got := s.Run(bs); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("case %d: %+v vs %+v", i, got, want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkNew builds a reference simulator on RV32GC for each template
// family: the preloaded image, the entry state and both summaries.
func BenchmarkNew(b *testing.B) {
	for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
		p := template.PlatformFor(fam, isa.RV32GC)
		b.Run(fam.String(), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				if _, err := New(Reference, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunErrorClassification: instruction-limit exhaustion is a timeout;
// any other executor error is a crash with its message preserved.
func TestRunErrorClassification(t *testing.T) {
	if timedOut, msg := classifyRunError(exec.ErrTimeout); !timedOut || msg != "" {
		t.Errorf("ErrTimeout: timedOut=%v msg=%q", timedOut, msg)
	}
	wrapped := fmt.Errorf("run aborted: %w", exec.ErrTimeout)
	if timedOut, _ := classifyRunError(wrapped); !timedOut {
		t.Error("wrapped ErrTimeout must classify as timeout")
	}
	other := errors.New("bus error at 0xdead")
	if timedOut, msg := classifyRunError(other); timedOut || msg != "bus error at 0xdead" {
		t.Errorf("generic error: timedOut=%v msg=%q", timedOut, msg)
	}

	// End to end: a never-terminating body exhausts the limit and must
	// surface as TimedOut, not Crashed.
	s := newSim(t, Reference, isa.RV32I)
	loop := stream(enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 0})) // jal x0, 0 — tight self-loop
	out := s.Run(loop)
	if !out.TimedOut || out.Crashed {
		t.Errorf("self-loop outcome: %+v", out)
	}
	if out.Insts < s.Limit {
		t.Errorf("timed out after %d instructions (limit %d)", out.Insts, s.Limit)
	}
}
