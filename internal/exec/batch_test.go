package exec

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// TestBatchStatuses drives lanes through the three terminal classes in
// one batch: a clean halt, a seeded decoder crash, and a timeout. Each
// lane's status must match its solo trajectory, and the crash must not
// disturb the neighbours.
func TestBatchStatuses(t *testing.T) {
	halting := newExec(isa.RV32I,
		enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Imm: 7}),
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	)
	crashing := newExec(isa.RV32IMC, 0x0000405b) // sail 32-bit crash pattern
	crashing.Dec = &isa.Decoder{Quirks: isa.Quirks{CrashOnPattern: true}}
	looping := newExec(isa.RV32I, enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: 0}))

	b := Batch{Lanes: []*Executor{halting, crashing, looping}, Quantum: 8}
	status := b.Run(100)

	if !status[0].Done || status[0].Err != nil || status[0].Panicked || !halting.Halted {
		t.Errorf("halting lane: %+v halted=%v", status[0], halting.Halted)
	}
	if halting.CPU.ReadX(1) != 7 {
		t.Errorf("halting lane x1 = %d, want 7", halting.CPU.ReadX(1))
	}
	if !status[1].Panicked || !strings.Contains(status[1].PanicMsg, "sail decoder crash") {
		t.Errorf("crashing lane: %+v", status[1])
	}
	if !status[2].Done || status[2].Err != ErrTimeout || status[2].Panicked {
		t.Errorf("looping lane: %+v", status[2])
	}
	if looping.InstCount != 100 {
		t.Errorf("looping lane ran %d insts, want exactly 100", looping.InstCount)
	}
}

// TestBatchZeroLimit: limit 0 must time every lane out immediately with
// zero instructions executed, matching scalar Run(0).
func TestBatchZeroLimit(t *testing.T) {
	e := newExec(isa.RV32I, enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Imm: 1}))
	b := Batch{Lanes: []*Executor{e}}
	status := b.Run(0)
	if status[0].Err != ErrTimeout || e.InstCount != 0 {
		t.Fatalf("status %+v after %d insts", status[0], e.InstCount)
	}
}

// cachedProgram assembles words at 0 and attaches a decode cache.
func cachedProgram(cfg isa.Config, words ...uint32) *Executor {
	e := newExec(cfg, words...)
	attachCache(e, cfg)
	return e
}

func sameArch(t *testing.T, label string, want, got *Executor) {
	t.Helper()
	if *want.CPU != *got.CPU {
		t.Fatalf("%s: hart diverged: want pc=%#x x5=%d minstret=%d, got pc=%#x x5=%d minstret=%d",
			label, want.CPU.PC, want.CPU.ReadX(5), want.CPU.Minstret,
			got.CPU.PC, got.CPU.ReadX(5), got.CPU.Minstret)
	}
	if want.Halted != got.Halted || want.InstCount != got.InstCount || want.TrapCount != got.TrapCount {
		t.Fatalf("%s: termination diverged: want (halted=%v n=%d traps=%d) got (halted=%v n=%d traps=%d)",
			label, want.Halted, want.InstCount, want.TrapCount, got.Halted, got.InstCount, got.TrapCount)
	}
}

// TestBatchQuantumInvisible pins the quantum-transparency invariant: a
// small quantum interrupts the round loop mid-way through a long
// straight-line run, but the counters and the final state are identical
// to a solo Run(limit) regardless of quantum size.
func TestBatchQuantumInvisible(t *testing.T) {
	var prog []uint32
	for i := 1; i <= 40; i++ {
		prog = append(prog, enc(isa.Inst{Op: isa.OpADDI, Rd: 5, Rs1: 5, Imm: 1}))
	}
	prog = append(prog, enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}))

	solo := cachedProgram(isa.RV32I, prog...)
	if err := solo.Run(3000); err != nil {
		t.Fatal(err)
	}
	for _, quantum := range []uint64{1, 3, 7, 64} {
		lane := cachedProgram(isa.RV32I, prog...)
		b := Batch{Lanes: []*Executor{lane}, Quantum: quantum}
		status := b.Run(3000)
		if !status[0].Done || status[0].Err != nil {
			t.Fatalf("quantum %d: %+v", quantum, status[0])
		}
		sameArch(t, fmt.Sprintf("quantum %d", quantum), solo, lane)
		if got, want := lane.Cache.Stats(), solo.Cache.Stats(); got != want {
			t.Fatalf("quantum %d: stats %+v, solo %+v", quantum, got, want)
		}
	}
}

// TestCloneStatsIndependentInBatch (satellite: CacheStats sharing across
// Clone): three clones of one cache stepped concurrently in a batch must
// keep fully independent counters — lanes with different trajectories
// report different stats, every lane reports exactly its solo-run stats,
// the parent's counters stay untouched, and the campaign fold (plain
// Add in lane order) equals the sum of the solo runs.
func TestCloneStatsIndependentInBatch(t *testing.T) {
	// The store address depends on x1 (preset per lane): lane 0 hits the
	// cached range (an invalidation), lanes 1 and 2 miss it.
	prog := []uint32{
		enc(isa.Inst{Op: isa.OpSLLI, Rd: 3, Rs1: 1, Imm: 12}),
		enc(isa.Inst{Op: isa.OpADDI, Rd: 3, Rs1: 3, Imm: 0x400}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 3, Rs2: 0}),
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	}
	parent := newExec(isa.RV32I, prog...)
	base := attachCache(parent, isa.RV32I)

	mkLane := func(id uint32) *Executor {
		e := newExec(isa.RV32I, prog...)
		e.CPU.X[1] = id
		e.Cache = base.Clone()
		return e
	}
	lanes := []*Executor{mkLane(0), mkLane(1), mkLane(2)}
	b := Batch{Lanes: lanes, Quantum: 2}
	for i, st := range b.Run(100) {
		if !st.Done || st.Err != nil || st.Panicked {
			t.Fatalf("lane %d: %+v", i, st)
		}
	}

	var fold, soloSum CacheStats
	for i, lane := range lanes {
		solo := mkLane(uint32(i))
		if err := solo.Run(100); err != nil {
			t.Fatal(err)
		}
		if got, want := lane.Cache.Stats(), solo.Cache.Stats(); got != want {
			t.Errorf("lane %d stats %+v, solo %+v", i, got, want)
		}
		fold.Add(lane.Cache.Stats())
		soloSum.Add(solo.Cache.Stats())
	}
	if lanes[0].Cache.Stats() == lanes[1].Cache.Stats() {
		t.Error("lanes 0 and 1 report identical stats despite different trajectories")
	}
	if lanes[0].Cache.Stats().Invalidations != 1 {
		t.Errorf("lane 0 invalidations = %d, want 1", lanes[0].Cache.Stats().Invalidations)
	}
	if base.Stats() != (CacheStats{}) {
		t.Errorf("parent cache counters moved: %+v", base.Stats())
	}
	if fold != soloSum {
		t.Errorf("fold %+v != solo sum %+v", fold, soloSum)
	}
}

// --- batch differential fuzzing -------------------------------------

// batchDiffResult extends diffResult with the batch-relevant
// observables: trap count, timeout classification and cache counters.
type batchDiffResult struct {
	cpu      hart.Hart
	mem      []byte
	halted   bool
	insts    uint64
	traps    uint64
	timedOut bool
	panicked bool
	panicMsg string
	stats    CacheStats
	trace    *diffTrace
}

// batchDiffExec builds one executor over bs exactly like runDiff, with
// an optional decode cache (classical when cached is false).
func batchDiffExec(bs []byte, cfg isa.Config, q isa.Quirks, xq Quirks, cached, hooked bool) (*Executor, *diffTrace) {
	m := mem.New(0, 0x8000)
	if len(bs) > 0x600 {
		bs = bs[:0x600]
	}
	if err := m.LoadImage(0, bs); err != nil {
		panic(err)
	}
	if err := m.Write32(testHandler, enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr})); err != nil {
		panic(err)
	}
	dec := &isa.Decoder{Quirks: q}
	cpu := hart.New(cfg)
	cpu.Mtvec = testHandler
	e := New(cpu, m, dec)
	e.HaltAddr = testHaltAddr
	e.Quirks = xq
	if cached {
		code, err := m.ReadBytes(0, fuzzCodeSpan)
		if err != nil {
			panic(err)
		}
		e.Cache = NewDecodeCache(dec.Predecode(0, code), cfg)
	}
	var tr *diffTrace
	if hooked {
		tr = &diffTrace{}
		e.Hook = tr
	}
	return e, tr
}

func captureBatchDiff(e *Executor, tr *diffTrace) batchDiffResult {
	res := batchDiffResult{
		cpu:    *e.CPU,
		halted: e.Halted,
		insts:  e.InstCount,
		traps:  e.TrapCount,
		stats:  e.Cache.Stats(),
		trace:  tr,
	}
	res.mem, _ = e.Mem.ReadBytes(0, 0x8000)
	return res
}

// soloBatchDiff runs one executor to the budget via Run (the path the
// simulators take, unlike runDiff's Step loop).
func soloBatchDiff(e *Executor, tr *diffTrace) batchDiffResult {
	var timedOut bool
	var panicked bool
	var panicMsg string
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				panicMsg = fmt.Sprint(r)
			}
		}()
		timedOut = e.Run(3000) == ErrTimeout
	}()
	res := captureBatchDiff(e, tr)
	res.timedOut = timedOut
	res.panicked = panicked
	res.panicMsg = panicMsg
	return res
}

func compareBatchDiff(t *testing.T, label string, bs []byte, want, got batchDiffResult, withStats bool) {
	t.Helper()
	if want.panicked != got.panicked || want.panicMsg != got.panicMsg {
		t.Fatalf("%s: panic diverged on %x: (%v, %q) vs (%v, %q)",
			label, bs, want.panicked, want.panicMsg, got.panicked, got.panicMsg)
	}
	if want.cpu != got.cpu {
		t.Fatalf("%s: hart diverged on %x:\nwant pc=%#x mcause=%#x mtval=%#x minstret=%d\ngot  pc=%#x mcause=%#x mtval=%#x minstret=%d",
			label, bs, want.cpu.PC, want.cpu.Mcause, want.cpu.Mtval, want.cpu.Minstret,
			got.cpu.PC, got.cpu.Mcause, got.cpu.Mtval, got.cpu.Minstret)
	}
	if want.halted != got.halted || want.insts != got.insts ||
		want.traps != got.traps || want.timedOut != got.timedOut {
		t.Fatalf("%s: termination diverged on %x: want (halted=%v n=%d traps=%d to=%v) got (halted=%v n=%d traps=%d to=%v)",
			label, bs, want.halted, want.insts, want.traps, want.timedOut,
			got.halted, got.insts, got.traps, got.timedOut)
	}
	if !bytes.Equal(want.mem, got.mem) {
		t.Fatalf("%s: memory diverged on %x", label, bs)
	}
	if withStats && want.stats != got.stats {
		t.Fatalf("%s: cache stats diverged on %x: want %+v got %+v", label, bs, want.stats, got.stats)
	}
	if want.trace != nil && got.trace != nil {
		if !slices.Equal(want.trace.edges, got.trace.edges) {
			t.Fatalf("%s: coverage edges diverged on %x", label, bs)
		}
		if !slices.Equal(want.trace.events, got.trace.events) {
			t.Fatalf("%s: hook events diverged on %x", label, bs)
		}
	}
}

// FuzzExecBatchDifferential is the three-way differential over the
// batch machinery: for each derived input, (A) the classical uncached
// loop, (B) a solo predecoded Run, and (C) a predecoded lane of an
// exec.Batch with a fuzz-chosen quantum must be indistinguishable — hart
// state, memory, traps, timeout classification, decoder panics and
// (between B and C) the cache counters. The selector additionally picks
// the configuration, the decoder/executor quirk set and whether a
// coverage hook is attached.
func FuzzExecBatchDifferential(f *testing.F) {
	diffSeeds(f)
	f.Fuzz(func(t *testing.T, sel uint8, bs []byte) {
		cfg := fuzzCfgs[int(sel)&3]
		q := fuzzQuirks[(int(sel)>>2)%len(fuzzQuirks)]
		var xq Quirks
		if sel&0x20 != 0 {
			xq = Quirks{LinkBeforeAlignCheck: true, SCIgnoresReservation: true, EcallMarksCompletion: true}
		}
		hooked := sel&0x80 != 0
		quantum := []uint64{0, 1, 7, 64}[(int(sel)>>5)&3]

		// Three overlapping inputs derived from bs: the full stream, a
		// truncation and a shifted suffix (distinct decode phases).
		inputs := [][]byte{bs, bs[:(len(bs)/3)*2], bs[len(bs)/3:]}

		want := make([]batchDiffResult, len(inputs))
		lanes := make([]*Executor, len(inputs))
		traces := make([]*diffTrace, len(inputs))
		for i, in := range inputs {
			ce, ctr := batchDiffExec(in, cfg, q, xq, false, hooked)
			classical := soloBatchDiff(ce, ctr)
			pe, ptr := batchDiffExec(in, cfg, q, xq, true, hooked)
			want[i] = soloBatchDiff(pe, ptr)
			compareBatchDiff(t, fmt.Sprintf("predecode[%d]", i), in, classical, want[i], false)
			lanes[i], traces[i] = batchDiffExec(in, cfg, q, xq, true, hooked)
		}

		b := Batch{Lanes: lanes, Quantum: quantum}
		status := b.Run(3000)
		for i := range inputs {
			got := captureBatchDiff(lanes[i], traces[i])
			got.timedOut = status[i].Err == ErrTimeout
			got.panicked = status[i].Panicked
			got.panicMsg = status[i].PanicMsg
			compareBatchDiff(t, fmt.Sprintf("batch[%d]", i), inputs[i], want[i], got, true)
		}
	})
}
