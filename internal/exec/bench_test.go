package exec

import (
	"testing"

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
		enc(isa.Inst{Op: isa.OpSLLI, Rd: 6, Rs1: 6, Imm: 12}), // x6 = 0x1000, a data word past the code
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

// BenchmarkRun measures whole-program Executor.Run throughput.
func BenchmarkRun(b *testing.B) {
	e := newExec(isa.RV32I, benchRunProgram()...)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resetBenchRun(e)
		if err := e.Run(20000); err != nil {
			b.Fatal(err)
		}
		insts += e.InstCount
	}
	b.ReportMetric(float64(insts)/b.Elapsed().Seconds()/1e6, "Minst/s")
}

// resetBenchRun puts e back at the start of benchRunProgram.
func resetBenchRun(e *Executor) {
	e.CPU.Reset()
	e.CPU.Mtvec = testHandler
	e.Halted = false
	e.InstCount = 0
}

// countHook counts hook calls; it allocates nothing itself.
type countHook struct{ n uint64 }

func (h *countHook) OnInst(*isa.Inst, *hart.Hart) { h.n++ }
func (h *countHook) OnEdge(uint32)                { h.n++ }

// runAllocs reports the allocations of one Executor.Run of
// benchRunProgram under hook.
func runAllocs(t *testing.T, hook Hook) float64 {
	e := newExec(isa.RV32I, benchRunProgram()...)
	e.Hook = hook
	return testing.AllocsPerRun(20, func() {
		resetBenchRun(e)
		if err := e.Run(20000); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunAllocsZero: an unhooked Executor.Run allocates nothing.
func TestRunAllocsZero(t *testing.T) {
	if allocs := runAllocs(t, nil); allocs != 0 {
		t.Errorf("%v allocs per Run, want 0", allocs)
	}
}

// TestRunHookedAllocsZero: Executor.Run with a hook attached allocates
// nothing.
func TestRunHookedAllocsZero(t *testing.T) {
	hook := &countHook{}
	if allocs := runAllocs(t, hook); allocs != 0 {
		t.Errorf("%v allocs per hooked Run, want 0", allocs)
	}
	if hook.n == 0 {
		t.Error("hook never called")
	}
}
