package exec

import (
	"testing"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// BenchmarkStepALU measures raw interpreter speed on a straight-line ALU
// loop body (the dominant cost of a fuzzer execution).
func BenchmarkStepALU(b *testing.B) {
	prog := []uint32{
		enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: 1}),
		enc(isa.Inst{Op: isa.OpXOR, Rd: 2, Rs1: 1, Rs2: 2}),
		enc(isa.Inst{Op: isa.OpSLL, Rd: 3, Rs1: 2, Rs2: 1}),
		enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: -12}),
	}
	e := newExec(isa.RV32I, prog...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkStepMemory measures load/store throughput.
func BenchmarkStepMemory(b *testing.B) {
	prog := []uint32{
		enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Imm: 0x200}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 1, Rs2: 2, Imm: 0}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 3, Rs1: 1, Imm: 0}),
		enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: -8}),
	}
	e := newExec(isa.RV32I, prog...)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkStepFP measures floating-point instruction throughput through
// the softfloat core.
func BenchmarkStepFP(b *testing.B) {
	prog := []uint32{
		enc(isa.Inst{Op: isa.OpFADDD, Rd: 1, Rs1: 2, Rs2: 3, RM: 0}),
		enc(isa.Inst{Op: isa.OpFMULD, Rd: 4, Rs1: 1, Rs2: 2, RM: 0}),
		enc(isa.Inst{Op: isa.OpJAL, Rd: 0, Imm: -8}),
	}
	e := newExec(isa.RV32GC, prog...)
	e.CPU.F[2] = 0x3ff0000000000000
	e.CPU.F[3] = 0x4000000000000000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkTrapRoundtrip measures the illegal-instruction trap path (the
// most common event in negative-testing workloads).
func BenchmarkTrapRoundtrip(b *testing.B) {
	m := mem.New(0, 0x8000)
	_ = m.Write32(0, 0xffffffff) // illegal
	// Handler: mret back (mepc stays 0 -> infinite trap loop).
	_ = m.Write32(testHandler, enc(isa.Inst{Op: isa.OpMRET}))
	cpu := hart.New(isa.RV32I)
	cpu.Mtvec = testHandler
	e := New(cpu, m, isa.Ref)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// benchRunProgram is a mixed ALU/memory/branch loop (~1600 retired
// instructions per run) that halts by itself — the Executor.Run shape the
// simulators drive, without fuzzer or template overhead.
func benchRunProgram() []uint32 {
	return []uint32{
		enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Imm: 200}),
		enc(isa.Inst{Op: isa.OpADDI, Rd: 6, Imm: 1}),
		enc(isa.Inst{Op: isa.OpSLLI, Rd: 6, Rs1: 6, Imm: 12}), // x6 = 0x1000, outside the code window
		// loop:
		enc(isa.Inst{Op: isa.OpADDI, Rd: 2, Rs1: 2, Imm: 3}),
		enc(isa.Inst{Op: isa.OpXOR, Rd: 3, Rs1: 3, Rs2: 2}),
		enc(isa.Inst{Op: isa.OpSLLI, Rd: 4, Rs1: 2, Imm: 1}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 6}),
		enc(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 5, Rs2: 2}),
		enc(isa.Inst{Op: isa.OpSW, Rs1: 6, Rs2: 5}),
		enc(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 1, Imm: -1}),
		enc(isa.Inst{Op: isa.OpBNE, Rs1: 1, Imm: -28}),
		enc(isa.Inst{Op: isa.OpSW, Imm: testHaltAddr}),
	}
}

// benchRun measures whole-program Executor.Run throughput; the predecode
// variant includes the per-run cache maintenance (Reset), exactly like
// the simulator's run path, and the fused variant additionally installs
// superblocks over the CFG's straight-line extents.
func benchRun(b *testing.B, pre, fused bool) {
	e := newExec(isa.RV32I, benchRunProgram()...)
	var cache *DecodeCache
	if pre {
		cache = attachCache(e, isa.RV32I)
		if fused {
			code, err := e.Mem.ReadBytes(0, fuzzCodeSpan)
			if err != nil {
				b.Fatal(err)
			}
			if cache.Fuse(analysis.StraightLineExtents(code, false)) == 0 {
				b.Fatal("no fused blocks installed")
			}
		}
	}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.CPU.Reset()
		e.CPU.Mtvec = testHandler
		e.Halted = false
		e.InstCount = 0
		if cache != nil {
			cache.Reset()
		}
		if err := e.Run(20000); err != nil {
			b.Fatal(err)
		}
		insts += e.InstCount
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// BenchmarkRunDirect is the classical fetch-decode-execute loop.
func BenchmarkRunDirect(b *testing.B) { benchRun(b, false, false) }

// BenchmarkRunPredecode is the same workload on the predecoded fast
// path; scripts/exec_bench.sh gates its speedup over BenchmarkRunDirect.
func BenchmarkRunPredecode(b *testing.B) { benchRun(b, true, false) }

// BenchmarkRunFused is the same workload with superblock fusion on top
// of the predecode; scripts/exec_bench.sh gates the batch+fusion
// speedup over BenchmarkRunPredecode.
func BenchmarkRunFused(b *testing.B) { benchRun(b, true, true) }

// BenchmarkRunBatch runs 8 fused lanes in lockstep through exec.Batch
// (the per-worker shape of the batched fuzz and compliance campaigns);
// the metric aggregates instructions across all lanes.
func BenchmarkRunBatch(b *testing.B) {
	const lanes = 8
	base := newExec(isa.RV32I, benchRunProgram()...)
	cache := attachCache(base, isa.RV32I)
	code, err := base.Mem.ReadBytes(0, fuzzCodeSpan)
	if err != nil {
		b.Fatal(err)
	}
	if cache.Fuse(analysis.StraightLineExtents(code, false)) == 0 {
		b.Fatal("no fused blocks installed")
	}
	execs := make([]*Executor, lanes)
	for i := range execs {
		e := newExec(isa.RV32I, benchRunProgram()...)
		e.Cache = cache.Clone()
		execs[i] = e
	}
	bt := Batch{Lanes: execs}
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, e := range execs {
			e.CPU.Reset()
			e.CPU.Mtvec = testHandler
			e.Halted = false
			e.InstCount = 0
			e.Cache.Reset()
		}
		for j, st := range bt.Run(20000) {
			if st.Err != nil || st.Panicked {
				b.Fatalf("lane %d: %+v", j, st)
			}
		}
		for _, e := range execs {
			insts += e.InstCount
		}
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// countHook counts hook calls; it allocates nothing itself.
type countHook struct{ n uint64 }

func (h *countHook) OnInst(*isa.Inst, *hart.Hart) { h.n++ }
func (h *countHook) OnEdge(uint32)                { h.n++ }

// TestRunHookedAllocsZero: Executor.Run with a hook attached allocates
// nothing, on the classical, predecoded and fused paths alike.
func TestRunHookedAllocsZero(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pre, fused bool
	}{{"direct", false, false}, {"predecode", true, false}, {"fused", true, true}} {
		e := newExec(isa.RV32I, benchRunProgram()...)
		var cache *DecodeCache
		if tc.pre {
			cache = attachCache(e, isa.RV32I)
			if tc.fused {
				code, err := e.Mem.ReadBytes(0, fuzzCodeSpan)
				if err != nil {
					t.Fatal(err)
				}
				if cache.Fuse(analysis.StraightLineExtents(code, false)) == 0 {
					t.Fatal("no fused blocks installed")
				}
			}
		}
		hook := &countHook{}
		e.Hook = hook
		allocs := testing.AllocsPerRun(20, func() {
			e.CPU.Reset()
			e.CPU.Mtvec = testHandler
			e.Halted = false
			e.InstCount = 0
			if cache != nil {
				cache.Reset()
			}
			if err := e.Run(20000); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs per hooked Run (%d instructions), want 0", tc.name, allocs, e.InstCount)
		}
		if hook.n == 0 {
			t.Errorf("%s: hook never called", tc.name)
		}
	}
}
