package template

import (
	"testing"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

func plat(cfg isa.Config) Platform {
	return Platform{Layout: DefaultLayout, Cfg: cfg}
}

// runPreloaded executes a bytestream via the fast injection path.
func runPreloaded(t *testing.T, p Platform, bs []byte) ([]uint32, *exec.Executor) {
	t.Helper()
	img, err := Preload(p)
	if err != nil {
		t.Fatalf("Preload: %v", err)
	}
	if err := img.Inject(bs); err != nil {
		t.Fatalf("Inject: %v", err)
	}
	e := img.NewExecutorCfg(img.Platform.Cfg, isa.Ref, exec.Quirks{})
	if err := e.Run(100000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	sig, err := img.Signature()
	if err != nil {
		t.Fatalf("Signature: %v", err)
	}
	return sig, e
}

func TestEmptyBytestreamSignature(t *testing.T) {
	sig, _ := runPreloaded(t, plat(isa.RV32I), nil)
	if len(sig) != 32 {
		t.Fatalf("signature length %d", len(sig))
	}
	// All slots are jump-to-end; the body completes, so x26 = init + 1.
	for i := 1; i <= 29; i++ {
		want := XInit[i]
		if i == 26 {
			want++
		}
		if sig[i] != want {
			t.Errorf("sig[x%d] = %#x, want %#x", i, sig[i], want)
		}
	}
	if sig[0] != 0 {
		t.Errorf("sig[x0] = %#x", sig[0])
	}
	if sig[30] != 0 {
		t.Errorf("mcause slot = %#x, want 0 (no trap)", sig[30])
	}
	if sig[31] != 0xdeadbeef {
		t.Errorf("sentinel = %#x", sig[31])
	}
}

func TestComputationalBytestream(t *testing.T) {
	// add x5, x1, x2 ; xor x6, x8, x9
	bs := leWords(
		isa.MustEncode(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2}),
		isa.MustEncode(isa.Inst{Op: isa.OpXOR, Rd: 6, Rs1: 8, Rs2: 9}),
	)
	sig, _ := runPreloaded(t, plat(isa.RV32I), bs)
	if sig[5] != XInit[1]+XInit[2] {
		t.Errorf("x5 = %#x, want %#x", sig[5], XInit[1]+XInit[2])
	}
	if sig[6] != XInit[8]^XInit[9] {
		t.Errorf("x6 = %#x", sig[6])
	}
	if sig[26] != XInit[26]+1 || sig[30] != 0 {
		t.Errorf("completion: x26=%#x mcause=%d", sig[26], sig[30])
	}
}

func TestIllegalInstructionBypassesX26(t *testing.T) {
	bs := leWords(0xffffffff)
	sig, _ := runPreloaded(t, plat(isa.RV32I), bs)
	if sig[26] != XInit[26] {
		t.Errorf("x26 = %#x, want untouched %#x", sig[26], XInit[26])
	}
	if sig[30] != 2 {
		t.Errorf("mcause = %d, want 2 (illegal instruction)", sig[30])
	}
	if sig[31] != 0xdeadbeef {
		t.Error("trap path must still dump the signature")
	}
}

func TestEcallSignature(t *testing.T) {
	bs := leWords(0x00000073)
	sig, _ := runPreloaded(t, plat(isa.RV32I), bs)
	if sig[30] != 11 {
		t.Errorf("mcause = %d, want 11 (machine ecall)", sig[30])
	}
	if sig[26] != XInit[26] {
		t.Error("ecall must bypass the x26 increment")
	}
}

func TestLoadFromDataWindow(t *testing.T) {
	// lw x5, -16(x30): reads the deterministic scratch pattern.
	bs := leWords(isa.MustEncode(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}))
	sig, _ := runPreloaded(t, plat(isa.RV32I), bs)
	want := scratchWord(DefaultLayout.DataMid - 16)
	if sig[5] != want {
		t.Errorf("loaded %#x, want pattern %#x", sig[5], want)
	}
}

func TestStoreThenLoadRoundtrip(t *testing.T) {
	bs := leWords(
		isa.MustEncode(isa.Inst{Op: isa.OpSW, Rs1: 31, Rs2: 16, Imm: 100}),
		isa.MustEncode(isa.Inst{Op: isa.OpLW, Rd: 7, Rs1: 30, Imm: 100}),
	)
	sig, _ := runPreloaded(t, plat(isa.RV32I), bs)
	if sig[7] != XInit[16] {
		t.Errorf("x7 = %#x, want %#x", sig[7], XInit[16])
	}
}

func TestFPSignature(t *testing.T) {
	// fadd.d f1, f8, f20 (1.0 + 2.0 = 3.0)
	bs := leWords(isa.MustEncode(isa.Inst{Op: isa.OpFADDD, Rd: 1, Rs1: 8, Rs2: 20, RM: 0}))
	sig, _ := runPreloaded(t, plat(isa.RV32GC), bs)
	if len(sig) != 96 {
		t.Fatalf("FP signature length %d", len(sig))
	}
	lo, hi := sig[32+2], sig[32+3] // f1 dwords
	got := uint64(hi)<<32 | uint64(lo)
	if got != 0x4008000000000000 { // 3.0
		t.Errorf("f1 = %#x, want 3.0", got)
	}
	// Untouched f0 keeps its init image.
	if uint64(sig[33])<<32|uint64(sig[32]) != FInit[0] {
		t.Errorf("f0 = %#x%08x", sig[33], sig[32])
	}
}

func TestFPIllegalOnIMC(t *testing.T) {
	bs := leWords(isa.MustEncode(isa.Inst{Op: isa.OpFADDD, Rd: 1, Rs1: 8, Rs2: 20, RM: 0}))
	sig, _ := runPreloaded(t, plat(isa.RV32IMC), bs)
	if len(sig) != 32 {
		t.Fatalf("IMC signature length %d", len(sig))
	}
	if sig[30] != 2 {
		t.Errorf("mcause = %d, want illegal", sig[30])
	}
}

// TestInjectionMatchesFullBuild verifies the fast injection path and the
// per-test-case assembly path produce identical memory images, hence
// identical signatures (the paper's pre-compilation optimization must be
// an optimization only).
func TestInjectionMatchesFullBuild(t *testing.T) {
	cases := [][]byte{
		nil,
		leWords(0xffffffff),
		leWords(isa.MustEncode(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 1, Rs2: 2})),
		leWords(0x00000073, 0x9002, 0xdeadbeef),
		{0x13, 0x05},                // partial word
		{0x01, 0x02, 0x03, 0x04, 5}, // 5 bytes
	}
	for _, p := range []Platform{plat(isa.RV32I), plat(isa.RV32GC)} {
		pre, err := Preload(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, bs := range cases {
			if err := pre.Inject(bs); err != nil {
				t.Fatal(err)
			}
			fast, err := pre.Mem.ReadBytes(p.Layout.MemBase, p.Layout.MemSize)
			if err != nil {
				t.Fatal(err)
			}
			img, err := Build(bs, p)
			if err != nil {
				t.Fatal(err)
			}
			m2 := mem.New(p.Layout.MemBase, p.Layout.MemSize)
			if _, err := img.LoadInto(m2); err != nil {
				t.Fatal(err)
			}
			slow, err := m2.ReadBytes(p.Layout.MemBase, p.Layout.MemSize)
			if err != nil {
				t.Fatal(err)
			}
			if string(fast) != string(slow) {
				for i := range fast {
					if fast[i] != slow[i] {
						t.Fatalf("%v bs=%x: memory differs first at %#x: %#x vs %#x",
							p.Cfg, bs, i, fast[i], slow[i])
					}
				}
			}
		}
	}
}

func TestLayoutInvariants(t *testing.T) {
	l := DefaultLayout
	if l.DataMid-2048 < l.DataBase+0x180 {
		t.Error("scratch window overlaps init data")
	}
	if l.DataMid+2048+8 > l.SigAddr {
		t.Error("scratch window (plus widest access) can reach the signature")
	}
	if l.SigAddr+384 > l.HaltAddr {
		t.Error("signature region reaches the halt address")
	}
	if l.HaltAddr+4 > l.MemBase+l.MemSize {
		t.Error("halt address outside memory")
	}
	if l.DataMid%8 != 0 {
		t.Error("data_mid must be 8-aligned for fld/fsd")
	}
}

func TestInjectTooLong(t *testing.T) {
	img, err := Preload(plat(isa.RV32I))
	if err != nil {
		t.Fatal(err)
	}
	if err := img.Inject(make([]byte, DefaultLayout.MaxBytes()+1)); err == nil {
		t.Error("expected error for oversized bytestream")
	}
}

func TestSourceDeterminism(t *testing.T) {
	a, err := Source([]byte{1, 2, 3, 4}, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Source([]byte{1, 2, 3, 4}, DefaultLayout)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("Source must be deterministic")
	}
}

func TestSourceOversizeError(t *testing.T) {
	_, err := Source(make([]byte, DefaultLayout.MaxBytes()+1), DefaultLayout)
	if err == nil {
		t.Fatal("oversize bytestream must be an error, not a panic")
	}
}

// leWords packs 32-bit words (or one trailing 16-bit value < 0x10000 as a
// full word) into a little-endian bytestream.
func leWords(ws ...uint32) []byte {
	var out []byte
	for _, w := range ws {
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out
}
