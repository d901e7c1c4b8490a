package template

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// TestUserSourceUnchanged pins the user-family template output: the trap
// family must not perturb the paper's template by a single byte, or every
// previously generated corpus, signature and report would shift.
func TestUserSourceUnchanged(t *testing.T) {
	want := map[int]string{
		0: "6fb9ddcb2a891f9408b2d666728748e3d147f8116a32564bb6c13b0a48ca29d4",
		8: "05805c64c8c64286da5234aac5377ec57389ad84e2d842b21be8e7bc077d2272",
	}
	for n, h := range want {
		bs := make([]byte, n)
		for i := range bs {
			bs[i] = byte(i)
		}
		src, err := SourceFamily(bs, DefaultLayout, FamilyUser)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256([]byte(src))
		if got := hex.EncodeToString(sum[:]); got != h {
			t.Errorf("user template source (bs=%d bytes) changed: sha256 %s, want %s", n, got, h)
		}
	}
}

func trapPlat(cfg isa.Config) Platform { return PlatformFor(FamilyTrap, cfg) }

// enc32 encodes instructions as a little-endian bytestream.
func enc32(t *testing.T, insts ...isa.Inst) []byte {
	t.Helper()
	var out []byte
	for _, in := range insts {
		w, err := isa.Encode(in)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}

func word(w uint32) []byte { return []byte{byte(w), byte(w >> 8), byte(w >> 16), byte(w >> 24)} }

// trapBase is the index of the trap counter within a trap-family
// signature.
func trapBase(p Platform) int { return p.BaseSigWords() }

func TestTrapTemplateAssemblesAllConfigs(t *testing.T) {
	for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IC, isa.RV32IM, isa.RV32IMC, isa.RV32GC} {
		if _, err := Preload(trapPlat(cfg)); err != nil {
			t.Errorf("%v: %v", cfg, err)
		}
	}
}

func TestTrapEmptyBytestream(t *testing.T) {
	p := trapPlat(isa.RV32I)
	sig, _ := runPreloaded(t, p, nil)
	if len(sig) != p.SigWords() {
		t.Fatalf("signature length %d, want %d", len(sig), p.SigWords())
	}
	tb := trapBase(p)
	if sig[tb] != 0 {
		t.Errorf("trap counter = %d, want 0", sig[tb])
	}
	want := XInit[26] + 1
	if sig[26] != want {
		t.Errorf("x26 = %#x, want %#x (body completed)", sig[26], want)
	}
	if sig[31] != 0xdeadbeef {
		t.Errorf("sentinel = %#x", sig[31])
	}
}

// TestTrapRecordsIllegal: one deliberately illegal word traps once; the
// handler records the tuple and resumes, so the body still completes and
// the record holds (tagged cause, mepc, mtval, mstatus).
func TestTrapRecordsIllegal(t *testing.T) {
	p := trapPlat(isa.RV32I)
	const bad = 0xffffffff
	sig, _ := runPreloaded(t, p, word(bad))
	tb := trapBase(p)
	if sig[tb] != 1 {
		t.Fatalf("trap counter = %d, want 1", sig[tb])
	}
	if sig[26] != XInit[26]+1 {
		t.Errorf("x26 = %#x, want completion (handler resumed)", sig[26])
	}
	cause, mepc, mtval, mstatus := sig[tb+1], sig[tb+2], sig[tb+3], sig[tb+4]
	if cause != hart.CauseIllegalInstruction<<1 {
		t.Errorf("tagged cause = %#x, want %#x (direct entry)", cause, hart.CauseIllegalInstruction<<1)
	}
	if mtval != bad {
		t.Errorf("mtval = %#x, want %#x", mtval, uint32(bad))
	}
	if mepc == 0 || mepc&3 != 0 {
		t.Errorf("mepc = %#x, want the word-aligned faulting slot", mepc)
	}
	if mstatus&hart.MstatusMPP != hart.MstatusMPP {
		t.Errorf("mstatus = %#x, want MPP set", mstatus)
	}
	// Registers x30/x31 are handler-preserved scratch; x1..x29 must be
	// untouched by the trap round trip.
	for i := 1; i <= 25; i++ {
		if sig[i] != XInit[i] {
			t.Errorf("x%d = %#x, want %#x", i, sig[i], XInit[i])
		}
	}
}

// TestTrapRecordCap: more traps than records keeps counting but stops
// recording, and the run still terminates.
func TestTrapRecordCap(t *testing.T) {
	p := trapPlat(isa.RV32I)
	var bs []byte
	for i := 0; i < p.Layout.Slots; i++ {
		bs = append(bs, word(0xffffffff)...)
	}
	sig, _ := runPreloaded(t, p, bs)
	tb := trapBase(p)
	if int(sig[tb]) != p.Layout.Slots {
		t.Fatalf("trap counter = %d, want %d", sig[tb], p.Layout.Slots)
	}
	// Records beyond TrapRecords must stay zero... all 16 in-range records
	// are filled here (20 traps > 16 records), so just check the last
	// record's cause word is valid and the region ends where it should.
	last := tb + 1 + 4*(p.Layout.TrapRecords-1)
	if sig[last] != hart.CauseIllegalInstruction<<1 {
		t.Errorf("record %d cause = %#x", p.Layout.TrapRecords-1, sig[last])
	}
	if len(sig) != tb+p.Layout.TrapSigWords() {
		t.Errorf("signature length %d", len(sig))
	}
}

// TestTrapEbreakEcall: ECALL and EBREAK are ordinary recorded traps in
// the trap family (resume, not terminate).
func TestTrapEbreakEcall(t *testing.T) {
	p := trapPlat(isa.RV32I)
	bs := append(word(0x00000073), word(0x00100073)...) // ecall; ebreak
	sig, _ := runPreloaded(t, p, bs)
	tb := trapBase(p)
	if sig[tb] != 2 {
		t.Fatalf("trap counter = %d, want 2", sig[tb])
	}
	if sig[tb+1] != hart.CauseECallM<<1 {
		t.Errorf("first cause = %#x, want ECALL-M", sig[tb+1])
	}
	if sig[tb+5] != hart.CauseBreakpoint<<1 {
		t.Errorf("second cause = %#x, want breakpoint", sig[tb+5])
	}
	if sig[26] != XInit[26]+1 {
		t.Errorf("x26 = %#x, want completion", sig[26])
	}
}

// TestTrapUnalignedAccess: the trap platform traps misaligned accesses,
// recording them as desired events.
func TestTrapUnalignedAccess(t *testing.T) {
	p := trapPlat(isa.RV32I)
	// lw x5, 1(x30): misaligned load (x30 = data_mid, word aligned).
	bs := enc32(t, isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: 1})
	sig, _ := runPreloaded(t, p, bs)
	tb := trapBase(p)
	if sig[tb] != 1 {
		t.Fatalf("trap counter = %d, want 1", sig[tb])
	}
	if sig[tb+1] != hart.CauseMisalignedLoad<<1 {
		t.Errorf("cause = %#x, want misaligned load", sig[tb+1])
	}
	if sig[tb+3] != DefaultLayout.DataMid+1 {
		t.Errorf("mtval = %#x, want the misaligned address %#x", sig[tb+3], DefaultLayout.DataMid+1)
	}
}

// TestTrapCSRRoundTrip: CSR instructions are legal body content in the
// trap family; a read of mscratch lands in the signature.
func TestTrapCSRRoundTrip(t *testing.T) {
	p := trapPlat(isa.RV32I)
	bs := enc32(t,
		isa.Inst{Op: isa.OpCSRRW, Rd: 0, Rs1: 15, CSR: hart.CSRMscratch}, // mscratch = x15
		isa.Inst{Op: isa.OpCSRRS, Rd: 5, Rs1: 0, CSR: hart.CSRMscratch},  // x5 = mscratch
	)
	sig, _ := runPreloaded(t, p, bs)
	tb := trapBase(p)
	if sig[tb] != 0 {
		t.Fatalf("trap counter = %d, want 0 (CSR ops are legal)", sig[tb])
	}
	if sig[5] != XInit[15] {
		t.Errorf("x5 = %#x, want mscratch round trip %#x", sig[5], XInit[15])
	}
}
