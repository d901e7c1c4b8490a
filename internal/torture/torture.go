// Package torture implements a baseline test generator in the style of the
// RISC-V Torture Test generator the paper compares against (section II):
// test cases are built by stitching together pre-defined randomized
// sequences of *valid* instructions. It performs positive testing only —
// illegal or reserved encodings are never emitted — which is exactly the
// gap the paper's fuzzing approach closes; the baseline exists so the
// difference is measurable (experiment E9 in EXPERIMENTS.md).
//
// Unlike the real Torture generator, the emitted test cases do use the
// compliance-format template (so they can run through the same Phase B
// harness); the defining property that is preserved is the positive-only
// instruction mix.
package torture

import (
	"fmt"
	"math/rand"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/resilience"
)

// Generator produces positive-testing bytestreams for one ISA
// configuration.
type Generator struct {
	rng *rand.Rand
	cfg isa.Config
}

// New creates a deterministic generator drawing instructions from the
// given configuration's extensions. The stream is drawn through
// resilience.RNG, the repo-wide randomness rule rvlint's globalrand
// analyzer enforces.
func New(seed int64, cfg isa.Config) *Generator {
	return &Generator{rng: rand.New(resilience.NewRNG(seed)), cfg: cfg}
}

// reg returns a random register below x30 (x30/x31 are the data-window
// pointers and stay clean for memory sequences).
func (g *Generator) reg() isa.Reg { return isa.Reg(g.rng.Intn(30)) }

// base returns x30 or x31.
func (g *Generator) base() isa.Reg { return isa.Reg(30 + g.rng.Intn(2)) }

// freg returns a random floating-point register.
func (g *Generator) freg() isa.Reg { return isa.Reg(g.rng.Intn(32)) }

// rm returns a random valid static rounding mode.
func (g *Generator) rm() uint8 { return uint8(g.rng.Intn(5)) }

// A snippet appends a randomized predefined sequence.
type snippet func(g *Generator) []isa.Inst

func aluChain(g *Generator) []isa.Inst {
	ops := []isa.Op{isa.OpADD, isa.OpSUB, isa.OpXOR, isa.OpOR, isa.OpAND, isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpSLT, isa.OpSLTU}
	n := 1 + g.rng.Intn(3)
	var out []isa.Inst
	for i := 0; i < n; i++ {
		out = append(out, isa.Inst{Op: ops[g.rng.Intn(len(ops))], Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()})
	}
	return out
}

func immChain(g *Generator) []isa.Inst {
	ops := []isa.Op{isa.OpADDI, isa.OpXORI, isa.OpORI, isa.OpANDI, isa.OpSLTI, isa.OpSLTIU}
	var out []isa.Inst
	out = append(out, isa.Inst{Op: isa.OpLUI, Rd: g.reg(), Imm: int32(g.rng.Uint32() & 0xfffff000)})
	out = append(out, isa.Inst{Op: ops[g.rng.Intn(len(ops))], Rd: g.reg(), Rs1: g.reg(), Imm: int32(g.rng.Intn(4096) - 2048)})
	if g.rng.Intn(2) == 0 {
		out = append(out, isa.Inst{Op: isa.OpSLLI, Rd: g.reg(), Rs1: g.reg(), Imm: int32(g.rng.Intn(32))})
	}
	return out
}

func memPingPong(g *Generator) []isa.Inst {
	b := g.base()
	off := int32((g.rng.Intn(1024) - 512) * 4)
	return []isa.Inst{
		{Op: isa.OpSW, Rs1: b, Rs2: g.reg(), Imm: off},
		{Op: isa.OpLW, Rd: g.reg(), Rs1: b, Imm: off},
		{Op: isa.OpLBU, Rd: g.reg(), Rs1: g.base(), Imm: int32(g.rng.Intn(256) - 128)},
	}
}

func branchSkip(g *Generator) []isa.Inst {
	// A forward branch over one instruction: always in-bounds, loop-free.
	ops := []isa.Op{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}
	return []isa.Inst{
		{Op: ops[g.rng.Intn(len(ops))], Rs1: g.reg(), Rs2: g.reg(), Imm: 8},
		{Op: isa.OpADDI, Rd: g.reg(), Rs1: g.reg(), Imm: int32(g.rng.Intn(64))},
	}
}

func mulDiv(g *Generator) []isa.Inst {
	ops := []isa.Op{isa.OpMUL, isa.OpMULH, isa.OpMULHU, isa.OpMULHSU, isa.OpDIV, isa.OpDIVU, isa.OpREM, isa.OpREMU}
	return []isa.Inst{
		{Op: ops[g.rng.Intn(len(ops))], Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()},
		{Op: ops[g.rng.Intn(len(ops))], Rd: g.reg(), Rs1: g.reg(), Rs2: g.reg()},
	}
}

func atomicPair(g *Generator) []isa.Inst {
	// Positive testing uses well-formed LR/SC pairs and plain AMOs.
	b := g.base()
	amos := []isa.Op{isa.OpAMOSWAPW, isa.OpAMOADDW, isa.OpAMOXORW, isa.OpAMOANDW, isa.OpAMOORW,
		isa.OpAMOMINW, isa.OpAMOMAXW, isa.OpAMOMINUW, isa.OpAMOMAXUW}
	if g.rng.Intn(2) == 0 {
		return []isa.Inst{
			{Op: isa.OpLRW, Rd: g.reg(), Rs1: b},
			{Op: isa.OpSCW, Rd: g.reg(), Rs1: b, Rs2: g.reg()},
		}
	}
	return []isa.Inst{{Op: amos[g.rng.Intn(len(amos))], Rd: g.reg(), Rs1: b, Rs2: g.reg()}}
}

func fpChain(g *Generator) []isa.Inst {
	single := []isa.Op{isa.OpFADDS, isa.OpFSUBS, isa.OpFMULS, isa.OpFDIVS, isa.OpFMINS, isa.OpFMAXS, isa.OpFSGNJS}
	double := []isa.Op{isa.OpFADDD, isa.OpFSUBD, isa.OpFMULD, isa.OpFDIVD, isa.OpFMIND, isa.OpFMAXD, isa.OpFSGNJD}
	ops := single
	if g.cfg.Has(isa.ExtD) && g.rng.Intn(2) == 0 {
		ops = double
	}
	op := ops[g.rng.Intn(len(ops))]
	inst := isa.Inst{Op: op, Rd: g.freg(), Rs1: g.freg(), Rs2: g.freg()}
	if op.Info().Flags.Is(isa.FlagHasRM) {
		inst.RM = g.rm()
	}
	out := []isa.Inst{inst}
	if g.rng.Intn(2) == 0 {
		cmp := []isa.Op{isa.OpFEQS, isa.OpFLTS, isa.OpFLES, isa.OpFCLASSS}
		out = append(out, isa.Inst{Op: cmp[g.rng.Intn(len(cmp))], Rd: g.reg(), Rs1: g.freg(), Rs2: g.freg()})
	}
	return out
}

// snippets returns the sequence pool available for the configuration.
func (g *Generator) snippets() []snippet {
	pool := []snippet{aluChain, immChain, memPingPong, branchSkip}
	if g.cfg.Has(isa.ExtM) {
		pool = append(pool, mulDiv)
	}
	if g.cfg.Has(isa.ExtA) {
		pool = append(pool, atomicPair)
	}
	if g.cfg.Has(isa.ExtF) {
		pool = append(pool, fpChain)
	}
	return pool
}

// TestCase generates one positive test case of at most maxWords
// instructions, encoded as a little-endian bytestream.
func (g *Generator) TestCase(maxWords int) ([]byte, error) {
	pool := g.snippets()
	var insts []isa.Inst
	for len(insts) < maxWords-3 {
		insts = append(insts, pool[g.rng.Intn(len(pool))](g)...)
		if g.rng.Intn(4) == 0 {
			break
		}
	}
	if len(insts) > maxWords {
		insts = insts[:maxWords]
	}
	// Branch targets were chosen for in-sequence positions; truncation
	// could leave a trailing branch pointing past the end, which is still
	// filter-legal (a jump to exactly the end falls through) as long as
	// the skipped slot exists. Ensure it does.
	if n := len(insts); n > 0 && insts[n-1].Op.Flags().Is(isa.FlagBranch) {
		insts = append(insts, isa.Inst{Op: isa.OpADDI, Rd: g.reg()})
	}
	out := make([]byte, 0, len(insts)*4)
	for _, inst := range insts {
		w, err := isa.Encode(inst)
		if err != nil {
			return nil, fmt.Errorf("torture: encoding %s: %w", inst.Op, err)
		}
		out = append(out, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}
	return out, nil
}

// Suite generates a full positive-testing suite.
func Suite(seed int64, cfg isa.Config, cases, maxWords int) (*compliance.Suite, error) {
	g := New(seed, cfg)
	s := &compliance.Suite{
		Origin: fmt.Sprintf("torture-style positive generator seed=%d isa=%v", seed, cfg),
	}
	for i := 0; i < cases; i++ {
		bs, err := g.TestCase(maxWords)
		if err != nil {
			return nil, err
		}
		s.Cases = append(s.Cases, bs)
	}
	return s, nil
}
