package filter

import (
	"math/rand"
	"testing"

	"rvnegtest/internal/analysis"
	"rvnegtest/internal/isa"
)

// BenchmarkCheckAccepted measures the filter on the Fig. 2 style accepted
// program (forked paths).
func BenchmarkCheckAccepted(b *testing.B) {
	bs := stream(
		enc(isa.Inst{Op: isa.OpADD, Rd: 31, Rs1: 2, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpJAL, Rd: 2, Imm: 20}),
		enc(isa.Inst{Op: isa.OpWFI}),
		enc(isa.Inst{Op: isa.OpADD, Rd: 30, Rs1: 2, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpBLT, Rs1: 30, Rs2: 31, Imm: 12}),
		0xffffffff,
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: -8}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
	)
	flt := &Filter{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !flt.Check(bs).Accepted {
			b.Fatal("must accept")
		}
	}
}

// campaignLengths are the lengths of the candidates a campaign's filter
// checks, in parts per thousand of the checked candidates: the first
// 200,000 executions of rvbench's fuzz-v3-user and fuzz-v0-trap
// workloads at seed 3 (mean 5.66 and 6.41 bytes; no candidate is empty
// or longer than the starting length limit of 8 bytes).
var campaignLengths = map[string][9]int{
	"user": {1: 49, 2: 45, 3: 54, 4: 252, 5: 83, 6: 64, 7: 69, 8: 384},
	"trap": {1: 36, 2: 28, 3: 36, 4: 168, 5: 43, 6: 64, 7: 62, 8: 563},
}

// campaignInputs returns 1,000 random bytestreams, perMille[l] of them l
// bytes long, in random order.
func campaignInputs(perMille [9]int) [][]byte {
	rng := rand.New(rand.NewSource(1))
	var inputs [][]byte
	for l, k := range perMille {
		for range k {
			bs := make([]byte, l)
			rng.Read(bs)
			inputs = append(inputs, bs)
		}
	}
	rng.Shuffle(len(inputs), func(i, j int) { inputs[i], inputs[j] = inputs[j], inputs[i] })
	return inputs
}

// longInputs returns 256 random bytestreams of 4 to 64 bytes in whole
// words (mean about 34): the longer candidates a campaign checks once
// its length limit has grown towards MaxLen.
func longInputs() [][]byte {
	rng := rand.New(rand.NewSource(1))
	inputs := make([][]byte, 256)
	for i := range inputs {
		bs := make([]byte, 4*(1+rng.Intn(16)))
		rng.Read(bs)
		inputs[i] = bs
	}
	return inputs
}

// randomSet is one input set of BenchmarkCheckRandom and its baseline.
type randomSet struct {
	name   string
	trap   bool
	inputs [][]byte
}

// randomSets are the random input sets: the lengths each family's
// campaign checks (campaignLengths) in its mode, and the longer streams
// of longInputs in user mode.
func randomSets() []randomSet {
	return []randomSet{
		{"user", false, campaignInputs(campaignLengths["user"])},
		{"trap", true, campaignInputs(campaignLengths["trap"])},
		{"long", false, longInputs()},
	}
}

// BenchmarkCheckRandom measures the filter over random bytestreams: the
// hot path of a campaign, where at the lengths campaigns check the
// check's fixed costs weigh as much as the few sites it decodes.
func BenchmarkCheckRandom(b *testing.B) {
	for _, set := range randomSets() {
		b.Run(set.name, func(b *testing.B) {
			flt := &Filter{MaxLen: 64, Trap: set.trap}
			for i := 0; i < b.N; i++ {
				flt.Check(set.inputs[i%len(set.inputs)])
			}
		})
	}
}

// denseStream builds a branch-dense input: nForks consecutive conditional
// branches (2^nForks-ish paths) ending in an illegal word. The enumeration
// engine forks at every branch and burns its step budget; the fixpoint
// engine decides it in one ascending pass.
func denseStream(nForks int) []byte {
	var words []uint32
	for i := 0; i < nForks; i++ {
		words = append(words, enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 8}))
	}
	words = append(words, 0xffffffff)
	return stream(words...)
}

// BenchmarkFilterDense compares the two engines on the branch-dense
// workload that motivated the fixpoint rewrite. The fixpoint engine must
// not be slower — and it accepts the input, where path enumeration gives
// up with analysis.ReasonPathBudget.
func BenchmarkFilterDense(b *testing.B) {
	// 21 words (84 bytes): inside the exhaustive engine's 128-byte visited
	// window, beyond any practical fork budget. No MaxLen so the length
	// check does not short-circuit either engine.
	bs := denseStream(20)
	b.Run("fixpoint", func(b *testing.B) {
		flt := &Filter{}
		for i := 0; i < b.N; i++ {
			if !flt.Check(bs).Accepted {
				b.Fatal("fixpoint must accept the branch-dense input")
			}
		}
	})
	b.Run("exhaustive", func(b *testing.B) {
		exh := &Exhaustive{}
		for i := 0; i < b.N; i++ {
			if r := exh.Check(bs); r.Reason != analysis.ReasonPathBudget {
				b.Fatalf("exhaustive should exhaust its budget, got %v", r)
			}
		}
	})
}

// BenchmarkCheckAcceptedExhaustive is the enumeration-engine baseline for
// BenchmarkCheckAccepted.
func BenchmarkCheckAcceptedExhaustive(b *testing.B) {
	bs := stream(
		enc(isa.Inst{Op: isa.OpADD, Rd: 31, Rs1: 2, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpJAL, Rd: 2, Imm: 20}),
		enc(isa.Inst{Op: isa.OpWFI}),
		enc(isa.Inst{Op: isa.OpADD, Rd: 30, Rs1: 2, Rs2: 3}),
		enc(isa.Inst{Op: isa.OpBLT, Rs1: 30, Rs2: 31, Imm: 12}),
		0xffffffff,
		enc(isa.Inst{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: -8}),
		enc(isa.Inst{Op: isa.OpLW, Rd: 5, Rs1: 30, Imm: -16}),
	)
	exh := &Exhaustive{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !exh.Check(bs).Accepted {
			b.Fatal("must accept")
		}
	}
}

// BenchmarkCheckRandomExhaustive is the enumeration-engine baseline for
// BenchmarkCheckRandom.
func BenchmarkCheckRandomExhaustive(b *testing.B) {
	for _, set := range randomSets() {
		b.Run(set.name, func(b *testing.B) {
			exh := &Exhaustive{MaxLen: 64, Trap: set.trap}
			for i := 0; i < b.N; i++ {
				exh.Check(set.inputs[i%len(set.inputs)])
			}
		})
	}
}
