package coverage

import (
	"fmt"
	"strconv"
	"strings"

	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// RuleConfig selects which rule families the specification enables. The
// paper provides the custom coverage "through an external specification
// file"; ParseSpec reads the textual form below, and DefaultSpec
// reproduces the paper's rule set (section IV-E).
type RuleConfig struct {
	RDZero    bool    // RD == x0 / RD != x0
	RDRS1     bool    // RD == RS1 / RD != RS1
	Regs3     bool    // three-register relations (all equal / all different / two equal)
	Rel       bool    // Reg[RS1] OP Reg[RS2] for OP in {==, !=, <, >}
	Values    []int64 // corner values for Reg[RS*] (the paper: MIN, MAX, -1, 0, 1)
	ImmRel    bool    // imm OP Reg[RS1]
	ImmValues []int64 // corner values for immediates
}

// DefaultSpec is the specification used for the paper's v1..v3
// configurations.
const DefaultSpec = `# custom coverage specification (paper section IV-E)
rd:        zero nonzero
rdrs1:     eq ne
regs3:     alleq allne someeq
rel:       eq ne lt gt
values:    min max -1 0 1
immrel:    eq ne lt gt
immvalues: min max -1 0 1
`

// ParseSpec reads a rule specification.
func ParseSpec(src string) (RuleConfig, error) {
	var cfg RuleConfig
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		key, rest, ok := strings.Cut(line, ":")
		if !ok {
			return cfg, fmt.Errorf("coverage: spec line %d: missing ':'", lineNo+1)
		}
		fields := strings.Fields(rest)
		switch strings.TrimSpace(key) {
		case "rd":
			cfg.RDZero = contains(fields, "zero") || contains(fields, "nonzero")
		case "rdrs1":
			cfg.RDRS1 = contains(fields, "eq") || contains(fields, "ne")
		case "regs3":
			cfg.Regs3 = len(fields) > 0
		case "rel":
			cfg.Rel = len(fields) > 0
		case "values":
			vs, err := parseValues(fields)
			if err != nil {
				return cfg, fmt.Errorf("coverage: spec line %d: %v", lineNo+1, err)
			}
			cfg.Values = vs
		case "immrel":
			cfg.ImmRel = len(fields) > 0
		case "immvalues":
			vs, err := parseValues(fields)
			if err != nil {
				return cfg, fmt.Errorf("coverage: spec line %d: %v", lineNo+1, err)
			}
			cfg.ImmValues = vs
		default:
			return cfg, fmt.Errorf("coverage: spec line %d: unknown family %q", lineNo+1, key)
		}
	}
	return cfg, nil
}

func contains(fields []string, s string) bool {
	for _, f := range fields {
		if f == s {
			return true
		}
	}
	return false
}

func parseValues(fields []string) ([]int64, error) {
	var out []int64
	for _, f := range fields {
		switch f {
		case "min":
			out = append(out, int64(-1)<<31)
		case "max":
			out = append(out, 1<<31-1)
		default:
			v, err := strconv.ParseInt(f, 0, 64)
			if err != nil {
				return nil, fmt.Errorf("bad value %q", f)
			}
			out = append(out, v)
		}
	}
	return out, nil
}

// Rule families of a compiled plan, in point-ID order. Each family owns a
// contiguous run of point IDs per operation:
//
//	famRD     RD == x0, RD != x0
//	famRDRS1  RD == RS1, RD != RS1
//	famRegs3  all equal, all different, exactly two equal, RD == RS2, RS1 == RS2
//	famRel    Reg[RS1] ==, !=, <, > Reg[RS2]
//	famRS1Val Reg[RS1] == value i, one point per configured value
//	famRS2Val Reg[RS2] == value i
//	famImmVal imm == corner i, one point per configured immediate value
//	famImmRel imm ==, !=, <, > Reg[RS1]
const (
	famRD uint8 = 1 << iota
	famRDRS1
	famRegs3
	famRel
	famRS1Val
	famRS2Val
	famImmVal
	famImmRel
)

// opPlan is one operation's compiled share of the specification: the
// enabled families and the first point ID of each. Everything that
// depends only on the operation (which families apply, the immediate
// corners of its format) is resolved here, so Eval only tests register
// indices, register values and the immediate.
type opPlan struct {
	fams                           uint8
	rd, rdRS1, regs3, rel          uint32
	rs1Val, rs2Val, immVal, immRel uint32
	imm                            []int32 // the format's immediate corners (famImmVal)
	readRS1, readRS2               bool    // integer source registers whose values rules read
}

// RuleSet is the compiled coverage specification: one plan per operation,
// with point IDs globally unique across operations.
type RuleSet struct {
	plans  []opPlan // indexed by Op
	values []int32  // the configured register corners as 32-bit values
	total  int
}

// NewRuleSet compiles a configuration against the instruction database.
// Point IDs are assigned operation by operation in isa.Instructions
// order and, within an operation, family by family in plan order.
func NewRuleSet(cfg RuleConfig) *RuleSet {
	rs := &RuleSet{plans: make([]opPlan, isa.NumOps())}
	for _, v := range cfg.Values {
		rs.values = append(rs.values, int32(v))
	}
	next := uint32(0)
	for i := range isa.Instructions {
		in := &isa.Instructions[i]
		fl := in.Flags
		intRD := fl.Is(isa.FlagWritesRD)
		hasRD := intRD || fl.Is(isa.FlagFPRd)
		hasRS1 := fl.Is(isa.FlagReadsRS1) || fl.Is(isa.FlagFPRs1)
		hasRS2 := fl.Is(isa.FlagReadsRS2) || fl.Is(isa.FlagFPRs2)
		intRS1 := fl.Is(isa.FlagReadsRS1)
		intRS2 := fl.Is(isa.FlagReadsRS2)
		hasImm := in.Fmt == isa.FmtI || in.Fmt == isa.FmtIShift || in.Fmt == isa.FmtS ||
			in.Fmt == isa.FmtB || in.Fmt == isa.FmtU || in.Fmt == isa.FmtJ

		p := &rs.plans[in.Op]
		p.readRS1, p.readRS2 = intRS1, intRS2
		family := func(f uint8, on bool, n int) uint32 {
			if !on || n == 0 {
				return 0
			}
			p.fams |= f
			first := next
			next += uint32(n)
			return first
		}
		p.rd = family(famRD, cfg.RDZero && intRD, 2)
		p.rdRS1 = family(famRDRS1, cfg.RDRS1 && intRD && hasRS1 && !fl.Is(isa.FlagFPRs1), 2)
		p.regs3 = family(famRegs3, cfg.Regs3 && hasRD && hasRS1 && hasRS2, 5)
		p.rel = family(famRel, cfg.Rel && intRS1 && intRS2, 4)
		p.rs1Val = family(famRS1Val, intRS1, len(cfg.Values))
		p.rs2Val = family(famRS2Val, intRS2, len(cfg.Values))
		p.immVal = family(famImmVal, hasImm, len(cfg.ImmValues))
		p.immRel = family(famImmRel, hasImm && cfg.ImmRel && intRS1, 4)
		if p.fams&famImmVal != 0 {
			for _, v := range cfg.ImmValues {
				p.imm = append(p.imm, immCorner(v, in.Fmt))
			}
		}
	}
	rs.total = int(next)
	return rs
}

// NumPoints returns the total number of coverage points the specification
// defines (the paper reports 2281 for its rule set).
func (rs *RuleSet) NumPoints() int { return rs.total }

// immCorner maps a configured corner value onto the immediate's own range
// (MIN/MAX refer to the format's extremes; the paper uses "similar rules
// for immediates").
func immCorner(v int64, fmtKind isa.Format) int32 {
	const i32min = -1 << 31
	const i32max = 1<<31 - 1
	switch fmtKind {
	case isa.FmtI, isa.FmtS:
		if v == i32min {
			return -2048
		}
		if v == i32max {
			return 2047
		}
	case isa.FmtIShift:
		if v == i32min {
			return 0
		}
		if v == i32max {
			return 31
		}
	case isa.FmtB:
		if v == i32min {
			return -4096
		}
		if v == i32max {
			return 4094
		}
	case isa.FmtU:
		if v == i32min {
			return int32(-1) << 31
		}
		if v == i32max {
			return int32(0x7ffff000)
		}
	case isa.FmtJ:
		if v == i32min {
			return -1 << 20
		}
		if v == i32max {
			return 1<<20 - 2
		}
	}
	return int32(v)
}

// Eval records the rule points the instruction hits into m, offset by
// base, in ascending point-ID order.
func (rs *RuleSet) Eval(inst *isa.Inst, h *hart.Hart, m *Map, base uint32) {
	p := &rs.plans[inst.Op]
	if p.fams == 0 {
		return
	}
	var rv1, rv2 int32
	if p.readRS1 {
		rv1 = int32(h.ReadX(inst.Rs1))
	}
	if p.readRS2 {
		rv2 = int32(h.ReadX(inst.Rs2))
	}
	if p.fams&famRD != 0 {
		m.Hit(base + p.rd + b2u(inst.Rd != 0))
	}
	if p.fams&famRDRS1 != 0 {
		m.Hit(base + p.rdRS1 + b2u(inst.Rd != inst.Rs1))
	}
	if p.fams&famRegs3 != 0 {
		first := base + p.regs3
		rdRS1, rs1RS2, rdRS2 := inst.Rd == inst.Rs1, inst.Rs1 == inst.Rs2, inst.Rd == inst.Rs2
		// Equality is transitive, so zero, one or all three pairs match.
		switch {
		case rdRS1 && rs1RS2:
			m.Hit(first)
		case !rdRS1 && !rs1RS2 && !rdRS2:
			m.Hit(first + 1)
		default:
			m.Hit(first + 2)
		}
		if rdRS2 {
			m.Hit(first + 3)
		}
		if rs1RS2 {
			m.Hit(first + 4)
		}
	}
	if p.fams&famRel != 0 {
		hitRel(m, base+p.rel, rv1, rv2)
	}
	if p.fams&famRS1Val != 0 {
		hitValues(m, base+p.rs1Val, rv1, rs.values)
	}
	if p.fams&famRS2Val != 0 {
		hitValues(m, base+p.rs2Val, rv2, rs.values)
	}
	if p.fams&famImmVal != 0 {
		hitValues(m, base+p.immVal, inst.Imm, p.imm)
	}
	if p.fams&famImmRel != 0 {
		hitRel(m, base+p.immRel, inst.Imm, rv1)
	}
}

// hitRel records the ==, !=, <, > points starting at first for a OP b.
func hitRel(m *Map, first uint32, a, b int32) {
	if a == b {
		m.Hit(first)
		return
	}
	m.Hit(first + 1)
	if a < b {
		m.Hit(first + 2)
	} else {
		m.Hit(first + 3)
	}
}

// hitValues records, for every corner equal to v, the point of that
// corner's index starting at first.
func hitValues(m *Map, first uint32, v int32, corners []int32) {
	for i, c := range corners {
		if v == c {
			m.Hit(first + uint32(i))
		}
	}
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}
