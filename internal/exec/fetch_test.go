package exec

import (
	"fmt"
	"math/rand"
	"testing"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// TestSelfModifyingStoreInvalidates is the headline self-modifying-stream
// regression: a wild store through x30 (and x31) overwrites an illegal
// word with a live instruction before it is fetched, and the fetch must
// execute the new encoding.
func TestSelfModifyingStoreInvalidates(t *testing.T) {
	for _, base := range []isa.Reg{30, 31} {
		e := newExec(isa.RV32I,
			enc(isa.Inst{Op: isa.OpADDI, Rd: base, Imm: 20}),
			enc(isa.Inst{Op: isa.OpLW, Rd: 1, Imm: 0x200}),
			enc(isa.Inst{Op: isa.OpSW, Rs1: base, Rs2: 1}),
			enc(isa.Inst{Op: isa.OpADDI}), // nop
			enc(isa.Inst{Op: isa.OpADDI}), // nop
			0xffffffff,                    // at 20: overwritten before it is fetched
			enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
		)
		// The replacement instruction, fetched from the data area.
		if err := e.Mem.Write32(0x200, enc(isa.Inst{Op: isa.OpADDI, Rd: 2, Imm: 99})); err != nil {
			t.Fatal(err)
		}
		if err := e.Run(100); err != nil {
			t.Fatal(err)
		}
		if got := e.CPU.ReadX(2); got != 99 {
			t.Errorf("base x%d: x2 = %d, want 99 (the old encoding executed?)", base, got)
		}
		if e.TrapCount != 0 {
			t.Errorf("base x%d: %d traps, want a trap-free run", base, e.TrapCount)
		}
	}
}

// TestSelfModifyingHalfwordStraddle patches only the upper halfword of a
// 32-bit instruction (a 16-bit store into the middle of a 4-byte word):
// the next fetch must see the stitched encoding.
func TestSelfModifyingHalfwordStraddle(t *testing.T) {
	want := enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 42})
	e := newExec(isa.RV32I,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 30, Imm: 22}), // hi half of the inst at 20
		enc(isa.Inst{Op: isa.OpLW, Rd: 1, Imm: 0x200}),
		enc(isa.Inst{Op: isa.OpSH, Rs1: 30, Rs2: 1}),
		enc(isa.Inst{Op: isa.OpADDI}),                // nop
		enc(isa.Inst{Op: isa.OpADDI}),                // nop
		enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Imm: 1}), // at 20: immediate patched to 42
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	)
	// Only the upper half of the target encoding (the I-type immediate
	// lives in the top bits).
	if err := e.Mem.Write32(0x200, want>>16); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := e.CPU.ReadX(5); got != 42 {
		t.Errorf("x5 = %d, want 42 (the straddling store was missed)", got)
	}
}

// TestSelfModifyingOverlappingStream patches a halfword in the middle of
// a 32-bit word and then branches into it, creating an overlapping
// instruction stream: the fetch at the mid-word target must execute the
// compressed instruction the store wrote there.
func TestSelfModifyingOverlappingStream(t *testing.T) {
	e := newExec(isa.RV32IMC,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 31, Imm: 18}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 1, Imm: 0x200}),
		enc(isa.Inst{Op: isa.OpSH, Rs1: 31, Rs2: 1}),
		enc(isa.Inst{Op: isa.OpBEQ, Imm: 6}), // branch to 18: mid-word target
		0xffffffff,                           // at 16; halfword at 18 becomes c.li x5, 9
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	)
	// c.li x5, 9 — the halfword the store writes at address 18.
	if err := e.Mem.Write32(0x200, 0x42a5); err != nil {
		t.Fatal(err)
	}
	if err := e.Run(200); err != nil {
		t.Fatal(err)
	}
	if got := e.CPU.ReadX(5); got != 9 {
		t.Errorf("x5 = %d, want 9 (c.li at the mid-word target did not execute)", got)
	}
	if e.TrapCount != 0 {
		t.Errorf("%d traps, want a trap-free run", e.TrapCount)
	}
}

// TestCrashPatternPanicsOnEveryFetch: a decode that panics (the modelled
// sail-riscv crash) leaves nothing in the memo, so fetching the pattern
// again crashes again.
func TestCrashPatternPanicsOnEveryFetch(t *testing.T) {
	e := newExec(isa.RV32IMC, 0x8400_8400) // both halfwords match the crash pattern
	e.Dec = &isa.Decoder{Quirks: isa.Quirks{CrashOnPattern: true}}
	for pass := range 2 {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("pass %d: fetching the crash pattern did not panic", pass)
				}
			}()
			e.CPU.PC = 0
			e.Step()
		}()
	}
}

// memoFetch steps e over key placed at address 0 and returns the record
// the step decoded; panicked reports a decoder crash. The hart needs the
// C extension, so that every halfword reaches the memo.
func memoFetch(t *testing.T, e *Executor, key uint32) (in isa.Inst, panicked bool) {
	if err := e.Mem.Write32(0, key); err != nil {
		t.Fatal(err)
	}
	e.CPU.PC = 0
	defer func() { panicked = recover() != nil }()
	e.Step()
	return e.cur, false
}

// directDecode is the decoder's own verdict on key.
func directDecode(d *isa.Decoder, key uint32) (in isa.Inst, panicked bool) {
	defer func() { panicked = recover() != nil }()
	return d.Decode(key), false
}

// TestDecodeMemoMatchesDecoder: every fetch decodes through the memo to
// exactly what the executor's decoder returns for the encoding, and a
// crash pattern panics on every fetch. Each key is fetched twice in a
// row, so the second fetch is served by the memo (or panics again), by
// one executor per quirk set in turn, so a memo shared between
// executors would hand one variant another's decode. The keys, in
// shuffled order: all 49,152 compressed halfwords and 100k random 32-bit
// words, then the keys of one memo slot, among them 32-bit words that
// share their low halfword.
func TestDecodeMemoMatchesDecoder(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	var all []uint32
	for h := uint32(0); h < 1<<16; h++ {
		if h&3 != 3 {
			all = append(all, h)
		}
	}
	for range 100_000 {
		all = append(all, rng.Uint32()|3)
	}
	var slot []uint32
	const lo = 0x405b // the 32-bit crash pattern's low halfword
	for k := uint32(0); k < 1<<16; k++ {
		if memoSlot(k<<16|lo) == memoSlot(lo) {
			slot = append(slot, k<<16|lo)
		}
		if k&3 != 3 && memoSlot(k) == memoSlot(lo) {
			slot = append(slot, k)
		}
	}
	var execs []*Executor
	for _, q := range fuzzQuirks {
		e := newExec(isa.RV32GC)
		e.Dec = &isa.Decoder{Quirks: q}
		execs = append(execs, e)
	}
	crashes := 0
	for _, keys := range [][]uint32{all, slot} {
		rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
		for _, key := range keys {
			for qi, e := range execs {
				want, wantPanic := directDecode(e.Dec, key)
				for fetch := range 2 {
					got, gotPanic := memoFetch(t, e, key)
					if got != want || gotPanic != wantPanic {
						t.Fatalf("quirks %d, fetch %d, key %#x: memo %+v (panic %v), decoder %+v (panic %v)",
							qi, fetch, key, got, gotPanic, want, wantPanic)
					}
				}
				if wantPanic {
					crashes++
				}
			}
		}
	}
	if crashes == 0 {
		t.Fatal("no key hit a crash pattern")
	}
	if len(slot) < 256 {
		t.Fatalf("only %d keys share a memo slot", len(slot))
	}
}

// TestFetchAtMemoryEnd: a compressed instruction in memory's last
// halfword executes, and a 32-bit encoding whose second halfword lies
// past the end takes a fetch access fault at its own address.
func TestFetchAtMemoryEnd(t *testing.T) {
	const last = 0x8000 - 2
	for _, tc := range []struct {
		half  uint16
		cause uint32
	}{
		{0x4525, 0},                          // c.li x10, 9
		{0x0513, hart.CauseFetchAccessFault}, // low half of addi x10, ...
	} {
		e := newExec(isa.RV32IMC)
		if err := e.Mem.Write16(last, tc.half); err != nil {
			t.Fatal(err)
		}
		e.CPU.PC = last
		e.Step()
		label := fmt.Sprintf("%#04x", tc.half)
		if tc.cause == 0 {
			if e.TrapCount != 0 || e.CPU.ReadX(10) != 9 || e.CPU.PC != 0x8000 {
				t.Errorf("%s: traps=%d x10=%d pc=%#x, want the c.li executed", label, e.TrapCount, e.CPU.ReadX(10), e.CPU.PC)
			}
			continue
		}
		if e.TrapCount != 1 || e.CPU.Mcause != tc.cause || e.CPU.Mtval != last || e.CPU.Mepc != last {
			t.Errorf("%s: traps=%d mcause=%d mtval=%#x mepc=%#x, want a fetch fault at %#x",
				label, e.TrapCount, e.CPU.Mcause, e.CPU.Mtval, e.CPU.Mepc, last)
		}
	}
}
