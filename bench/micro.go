package bench

import (
	"runtime"
	"time"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/coverage"
	"rvnegtest/internal/filter"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// microOps is the number of operations each microbenchmark measures: the
// sampled inputs are replayed as many times as it takes to reach it.
const microOps = 20000

// countHook is a no-op coverage hook that only counts its calls: the
// baseline that isolates hook dispatch from the coverage collector.
type countHook struct{ n uint64 }

func (h *countHook) OnInst(*isa.Inst, *hart.Hart) { h.n++ }
func (h *countHook) OnEdge(uint32)                { h.n++ }

// cost is one microbenchmark's per-operation figures.
type cost struct{ ns, allocs, bytes float64 }

// measure times variants of an operation over inputs 0..n-1: one warm-up
// pass each, then passes interleaved across the variants (so drift in the
// machine's speed hits them alike) until each ran at least microOps
// operations in three or more passes. ns is a variant's median per-pass
// time per operation; allocs and bytes come from runtime.MemStats deltas
// over its measured passes.
func measure(n int, variants ...func(i int)) []cost {
	for _, fn := range variants {
		for i := 0; i < n; i++ {
			fn(i)
		}
	}
	passes := max(3, (microOps+n-1)/n)
	perOp := make([][]float64, len(variants))
	mallocs := make([]uint64, len(variants))
	bytes := make([]uint64, len(variants))
	var m0, m1 runtime.MemStats
	for p := 0; p < passes; p++ {
		for v, fn := range variants {
			runtime.ReadMemStats(&m0)
			t0 := time.Now()
			for i := 0; i < n; i++ {
				fn(i)
			}
			d := time.Since(t0)
			runtime.ReadMemStats(&m1)
			perOp[v] = append(perOp[v], float64(d.Nanoseconds())/float64(n))
			mallocs[v] += m1.Mallocs - m0.Mallocs
			bytes[v] += m1.TotalAlloc - m0.TotalAlloc
		}
	}
	ops := float64(passes * n)
	out := make([]cost, len(variants))
	for v := range variants {
		out[v] = cost{
			ns:     statOf("ns", perOp[v]).Value,
			allocs: float64(mallocs[v]) / ops,
			bytes:  float64(bytes[v]) / ops,
		}
	}
	return out
}

// sinkCat keeps ClassifyAt's result live.
var sinkCat compliance.Category

// microbench replays a workload's sampled inputs through single-goroutine
// microbenchmarks of each layer on the workload's platform (RV32GC,
// reference model) and coverage configuration.
func microbench(m map[string]Stat, inputs [][]byte, fam template.Family, cov coverage.Options) error {
	if len(inputs) == 0 {
		return nil
	}
	p := template.PlatformFor(fam, isa.RV32GC)
	s, err := sim.New(sim.Reference, p)
	if err != nil {
		return err
	}
	n := len(inputs)

	var insts uint64
	for _, bs := range inputs {
		insts += s.Run(bs).Insts
	}
	instsPerRun := float64(insts) / float64(n)
	// Plain runs, runs with a no-op hook and runs with the collector:
	// the differences isolate hook dispatch and the collector's cost.
	var nop countHook
	col := coverage.NewCollector(cov)
	c := measure(n,
		func(i int) { s.Run(inputs[i]) },
		func(i int) { s.RunHooked(inputs[i], &nop) },
		func(i int) {
			s.RunHooked(inputs[i], col)
			col.Map.DiscardRun()
		})
	run, hooked, collected := c[0], c[1], c[2]
	m["sim.run.ns"] = one("ns", run.ns)
	m["sim.run.allocs"] = one("count", run.allocs)
	m["sim.run.bytes"] = one("B", run.bytes)
	m["sim.run.insts"] = one("count", instsPerRun)
	m["sim.run.ns_per_inst"] = one("ns", run.ns/instsPerRun)
	m["exec.hook_dispatch.ns"] = one("ns", hooked.ns-run.ns)
	m["coverage.hook.ns"] = one("ns", collected.ns-hooked.ns)
	m["coverage.hook.allocs"] = one("count", collected.allocs-hooked.allocs)

	// The merge is timed call by call on one persistent map, as the
	// fuzzer merges each accepted run.
	var merge time.Duration
	merges := 0
	for merges < microOps {
		for _, bs := range inputs {
			s.RunHooked(bs, col)
			t0 := time.Now()
			col.Map.MergeNew()
			merge += time.Since(t0)
		}
		merges += n
	}
	m["coverage.merge.ns"] = one("ns", float64(merge.Nanoseconds())/float64(merges))

	flt := &filter.Filter{MaxLen: 64, Trap: fam == template.FamilyTrap}
	check := measure(n, func(i int) { flt.Check(inputs[i]) })[0]
	m["filter.check.ns"] = one("ns", check.ns)
	m["filter.check.allocs"] = one("count", check.allocs)
	m["filter.check.bytes"] = one("B", check.bytes)

	// Signature pairs as the compliance engine classifies them: the
	// compliance reference against the SUT with the most mismatches.
	ref, err := sim.New(sim.OVPSim, p)
	if err != nil {
		return err
	}
	sut, err := sim.New(sim.Grift, p)
	if err != nil {
		return err
	}
	var refs, gots [][]uint32
	for _, bs := range inputs {
		r, g := ref.Run(bs), sut.Run(bs)
		if r.Signature != nil && g.Signature != nil {
			refs, gots = append(refs, r.Signature), append(gots, g.Signature)
		}
	}
	trapBase := 0
	if fam == template.FamilyTrap {
		trapBase = p.BaseSigWords()
	}
	if len(refs) > 0 {
		cmp := measure(len(refs), func(i int) { sinkCat = compliance.ClassifyAt(refs[i], gots[i], trapBase) })[0]
		m["sig.compare.ns"] = one("ns", cmp.ns)
	}
	return nil
}
