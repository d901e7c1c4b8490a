package coverage

import (
	"testing"
	"testing/quick"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

func TestMapBuckets(t *testing.T) {
	m := NewMap(16)
	m.Hit(3)
	if !m.MergeNew() {
		t.Fatal("first hit must be new coverage")
	}
	m.Hit(3)
	if m.MergeNew() {
		t.Fatal("same count again must not be new")
	}
	// Two hits fall into a different bucket.
	m.Hit(3)
	m.Hit(3)
	if !m.MergeNew() {
		t.Fatal("count bucket change must be new")
	}
	// 2 again: nothing new.
	m.Hit(3)
	m.Hit(3)
	if m.MergeNew() {
		t.Fatal("repeated bucket must not be new")
	}
	// A different point is new.
	m.Hit(5)
	if !m.MergeNew() {
		t.Fatal("new point must be new coverage")
	}
	if m.PointsCovered() != 2 {
		t.Errorf("points covered = %d", m.PointsCovered())
	}
	if m.BucketBits() != 3 {
		t.Errorf("bucket bits = %d", m.BucketBits())
	}
}

func TestBucketBoundaries(t *testing.T) {
	// Counts within one bucket are not new; crossing a boundary is.
	bounds := []uint32{1, 2, 3, 4, 8, 16, 32, 128}
	m := NewMap(4)
	hits := uint32(0)
	for _, b := range bounds {
		for hits < b {
			m.Hit(0)
			hits++
		}
		if !m.MergeNew() {
			t.Errorf("count %d must open a new bucket", b)
		}
		hits = 0 // counts reset after merge; replay up to the next bound
		for i := uint32(0); i < b; i++ {
			m.Hit(0)
		}
		if m.MergeNew() {
			t.Errorf("repeat of count %d must not be new", b)
		}
		hits = 0
	}
}

func TestDiscardRun(t *testing.T) {
	m := NewMap(8)
	m.Hit(1)
	m.DiscardRun()
	if m.MergeNew() {
		t.Fatal("discarded run must not contribute coverage")
	}
	m.Hit(1)
	if !m.MergeNew() {
		t.Fatal("fresh hit after discard must be new")
	}
	m.Reset()
	if m.PointsCovered() != 0 || m.BucketBits() != 0 {
		t.Fatal("reset must clear everything")
	}
	m.Hit(1)
	if !m.MergeNew() {
		t.Fatal("hit after reset must be new")
	}
}

func TestMapIgnoresOutOfRange(t *testing.T) {
	m := NewMap(4)
	m.Hit(4)
	m.Hit(1 << 30)
	if m.MergeNew() {
		t.Fatal("out-of-range hits must be ignored")
	}
}

func TestParseSpecDefault(t *testing.T) {
	cfg, err := ParseSpec(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !cfg.RDZero || !cfg.RDRS1 || !cfg.Regs3 || !cfg.Rel || !cfg.ImmRel {
		t.Errorf("families missing: %+v", cfg)
	}
	if len(cfg.Values) != 5 || len(cfg.ImmValues) != 5 {
		t.Errorf("value lists: %v %v", cfg.Values, cfg.ImmValues)
	}
	if cfg.Values[0] != -1<<31 || cfg.Values[1] != 1<<31-1 || cfg.Values[2] != -1 {
		t.Errorf("values = %v", cfg.Values)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, bad := range []string{
		"nonsense line",
		"unknown: x",
		"values: 12zz",
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q): want error", bad)
		}
	}
	// Comments and empty lines are fine.
	if _, err := ParseSpec("# comment\n\nrd: zero\n"); err != nil {
		t.Errorf("comment spec: %v", err)
	}
}

func TestRuleSetPointCountMatchesPaperScale(t *testing.T) {
	rs := NewRuleSet(mustSpec(t))
	n := rs.NumPoints()
	// The paper reports 2281 additional coverage points for its rule set;
	// ours must land in the same ballpark (the exact number depends on
	// how the opcode set is enumerated).
	if n < 1200 || n > 3500 {
		t.Errorf("rule points = %d, expected paper-scale (~2281)", n)
	}
	t.Logf("rule coverage points: %d (paper: 2281)", n)
}

func mustSpec(t *testing.T) RuleConfig {
	t.Helper()
	cfg, err := ParseSpec(DefaultSpec)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// The oracle evaluates a specification point by point: one (kind, arg)
// entry per point and a switch per point, the simplest reading of the
// rules. NewRuleSet's per-op plans must reproduce it exactly.

// Oracle rule kinds, one per coverage point.
const (
	ruleRDZero uint8 = iota
	ruleRDNonzero
	ruleRDEqRS1
	ruleRDNeRS1
	rule3AllEq
	rule3AllNe
	rule3SomeEq
	rule3RDEqRS2
	rule3RS1EqRS2
	ruleRelEq
	ruleRelNe
	ruleRelLt
	ruleRelGt
	ruleRS1Val // arg = value index
	ruleRS2Val
	ruleImmVal
	ruleImmRelEq
	ruleImmRelNe
	ruleImmRelLt
	ruleImmRelGt
)

type rulePoint struct {
	kind uint8
	arg  uint8
}

// oracleRules is the point-per-entry form of a specification: per
// operation, the applicable points and their global IDs (parallel).
type oracleRules struct {
	cfg    RuleConfig
	points [][]rulePoint
	ids    [][]uint32
	total  int
}

func newOracleRules(cfg RuleConfig) *oracleRules {
	rs := &oracleRules{cfg: cfg}
	n := isa.NumOps()
	rs.points = make([][]rulePoint, n)
	rs.ids = make([][]uint32, n)
	next := uint32(0)
	add := func(op isa.Op, kind, arg uint8) {
		rs.points[op] = append(rs.points[op], rulePoint{kind, arg})
		rs.ids[op] = append(rs.ids[op], next)
		next++
	}
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

		if cfg.RDZero && intRD {
			add(in.Op, ruleRDZero, 0)
			add(in.Op, ruleRDNonzero, 0)
		}
		if cfg.RDRS1 && intRD && hasRS1 && !fl.Is(isa.FlagFPRs1) {
			add(in.Op, ruleRDEqRS1, 0)
			add(in.Op, ruleRDNeRS1, 0)
		}
		if cfg.Regs3 && hasRD && hasRS1 && hasRS2 {
			add(in.Op, rule3AllEq, 0)
			add(in.Op, rule3AllNe, 0)
			add(in.Op, rule3SomeEq, 0)
			add(in.Op, rule3RDEqRS2, 0)
			add(in.Op, rule3RS1EqRS2, 0)
		}
		if cfg.Rel && intRS1 && intRS2 {
			add(in.Op, ruleRelEq, 0)
			add(in.Op, ruleRelNe, 0)
			add(in.Op, ruleRelLt, 0)
			add(in.Op, ruleRelGt, 0)
		}
		if intRS1 {
			for vi := range cfg.Values {
				add(in.Op, ruleRS1Val, uint8(vi))
			}
		}
		if intRS2 {
			for vi := range cfg.Values {
				add(in.Op, ruleRS2Val, uint8(vi))
			}
		}
		if hasImm {
			for vi := range cfg.ImmValues {
				add(in.Op, ruleImmVal, uint8(vi))
			}
			if cfg.ImmRel && intRS1 {
				add(in.Op, ruleImmRelEq, 0)
				add(in.Op, ruleImmRelNe, 0)
				add(in.Op, ruleImmRelLt, 0)
				add(in.Op, ruleImmRelGt, 0)
			}
		}
	}
	rs.total = int(next)
	return rs
}

// eval reports the points the instruction hits, invoking hit for each.
func (rs *oracleRules) eval(inst *isa.Inst, h *hart.Hart, hit func(uint32)) {
	pts := rs.points[inst.Op]
	if len(pts) == 0 {
		return
	}
	ids := rs.ids[inst.Op]
	info := inst.Info()
	var rv1, rv2 int32
	if info.Flags.Is(isa.FlagReadsRS1) {
		rv1 = int32(h.ReadX(inst.Rs1))
	}
	if info.Flags.Is(isa.FlagReadsRS2) {
		rv2 = int32(h.ReadX(inst.Rs2))
	}
	for i, p := range pts {
		ok := false
		switch p.kind {
		case ruleRDZero:
			ok = inst.Rd == 0
		case ruleRDNonzero:
			ok = inst.Rd != 0
		case ruleRDEqRS1:
			ok = inst.Rd == inst.Rs1
		case ruleRDNeRS1:
			ok = inst.Rd != inst.Rs1
		case rule3AllEq:
			ok = inst.Rd == inst.Rs1 && inst.Rs1 == inst.Rs2
		case rule3AllNe:
			ok = inst.Rd != inst.Rs1 && inst.Rs1 != inst.Rs2 && inst.Rd != inst.Rs2
		case rule3RDEqRS2:
			ok = inst.Rd == inst.Rs2
		case rule3RS1EqRS2:
			ok = inst.Rs1 == inst.Rs2
		case rule3SomeEq:
			eq := 0
			if inst.Rd == inst.Rs1 {
				eq++
			}
			if inst.Rs1 == inst.Rs2 {
				eq++
			}
			if inst.Rd == inst.Rs2 {
				eq++
			}
			ok = eq == 1
		case ruleRelEq:
			ok = rv1 == rv2
		case ruleRelNe:
			ok = rv1 != rv2
		case ruleRelLt:
			ok = rv1 < rv2
		case ruleRelGt:
			ok = rv1 > rv2
		case ruleRS1Val:
			ok = int64(rv1) == int64(int32(rs.cfg.Values[p.arg]))
		case ruleRS2Val:
			ok = int64(rv2) == int64(int32(rs.cfg.Values[p.arg]))
		case ruleImmVal:
			ok = inst.Imm == immCorner(rs.cfg.ImmValues[p.arg], info.Fmt)
		case ruleImmRelEq:
			ok = inst.Imm == rv1
		case ruleImmRelNe:
			ok = inst.Imm != rv1
		case ruleImmRelLt:
			ok = inst.Imm < rv1
		case ruleImmRelGt:
			ok = inst.Imm > rv1
		}
		if ok {
			hit(ids[i])
		}
	}
}

// kindOf names the oracle kind of a point ID.
func (rs *oracleRules) kindOf(op isa.Op, id uint32) (uint8, bool) {
	for i, pid := range rs.ids[op] {
		if pid == id {
			return rs.points[op][i].kind, true
		}
	}
	return 0, false
}

func TestRuleEval(t *testing.T) {
	cfg := mustSpec(t)
	rs := NewRuleSet(cfg)
	oracle := newOracleRules(cfg)
	h := hart.New(isa.RV32I)
	m := NewMap(rs.NumPoints())
	collect := func(inst isa.Inst) map[uint8]bool {
		kinds := map[uint8]bool{}
		rs.Eval(&inst, h, m, 0)
		for _, p := range m.RunFootprint() {
			k, ok := oracle.kindOf(inst.Op, p.ID)
			if !ok {
				t.Fatalf("%v: point %d belongs to another op", inst.Op, p.ID)
			}
			kinds[k] = true
		}
		m.DiscardRun()
		return kinds
	}

	// add x0, x1, x2: RD==x0, all regs different, values equal (both 0).
	h.X[1], h.X[2] = 0, 0
	k := collect(isa.Inst{Op: isa.OpADD, Rd: 0, Rs1: 1, Rs2: 2})
	for _, want := range []uint8{ruleRDZero, ruleRDNeRS1, rule3AllNe, ruleRelEq} {
		if !k[want] {
			t.Errorf("add x0,x1,x2: missing kind %d (got %v)", want, k)
		}
	}
	if k[ruleRDNonzero] || k[ruleRelLt] {
		t.Errorf("add x0,x1,x2: spurious kinds %v", k)
	}

	// add x5, x5, x5: RD==RS1, all equal.
	k = collect(isa.Inst{Op: isa.OpADD, Rd: 5, Rs1: 5, Rs2: 5})
	if !k[rule3AllEq] || !k[ruleRDEqRS1] || !k[ruleRDNonzero] {
		t.Errorf("add x5,x5,x5: %v", k)
	}

	// Value corners: rs1 = MIN.
	h.X[7] = 0x80000000
	h.X[8] = 1
	k = collect(isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 7, Rs2: 8})
	if !k[ruleRS1Val] || !k[ruleRS2Val] || !k[ruleRelLt] {
		t.Errorf("corner values: %v", k)
	}

	// Immediate corner: addi with imm = -2048 (the I-format MIN).
	k = collect(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 2, Imm: -2048})
	if !k[ruleImmVal] {
		t.Errorf("imm corner: %v", k)
	}
	// Immediate relation: imm > rs1 value.
	h.X[2] = 0xfffffff0 // -16
	k = collect(isa.Inst{Op: isa.OpADDI, Rd: 1, Rs1: 2, Imm: 5})
	if !k[ruleImmRelGt] || k[ruleImmRelLt] {
		t.Errorf("imm relation: %v", k)
	}
}

func TestRuleEvalNoPointsForBareOps(t *testing.T) {
	rs := NewRuleSet(mustSpec(t))
	h := hart.New(isa.RV32I)
	m := NewMap(rs.NumPoints())
	inst := isa.Inst{Op: isa.OpECALL}
	rs.Eval(&inst, h, m, 0)
	if fp := m.RunFootprint(); len(fp) != 0 {
		t.Errorf("ecall hit %d rule points", len(fp))
	}
}

// TestRulePlansMatchOracle checks the compiled plans against the oracle
// on every operation, every register shape (each of rd, rs1, rs2 equal or
// distinct, rd = x0 or not), register values on and off every corner and
// immediates on and off every corner of the operation's format: the plan
// must hit the same point IDs, in the same order, with the same counts.
// No rule reads both Reg[RS2] and the immediate, so per shape the inputs
// run through every (Reg[RS1], Reg[RS2]) and every (Reg[RS1], imm) pair.
func TestRulePlansMatchOracle(t *testing.T) {
	specs := map[string]string{
		"default": DefaultSpec,
		// Non-default value lists, a duplicate corner included, and some
		// families switched off.
		"custom":      "rd: zero\nregs3: alleq\nrel: eq\nvalues: 0 7 -2048 7 max 0x55\nimmvalues: min 3 -1 max 3 0x7ff\n",
		"values-only": "values: -1 1\nimmvalues: 0\n",
	}
	for name, src := range specs {
		t.Run(name, func(t *testing.T) {
			cfg, err := ParseSpec(src)
			if err != nil {
				t.Fatal(err)
			}
			rs := NewRuleSet(cfg)
			oracle := newOracleRules(cfg)
			if rs.NumPoints() != oracle.total {
				t.Fatalf("NumPoints = %d, oracle %d", rs.NumPoints(), oracle.total)
			}
			vals := []int32{12345, -777} // off every corner
			for _, v := range cfg.Values {
				vals = append(vals, int32(v))
			}
			h := hart.New(isa.RV32GC)
			got, want := NewMap(rs.NumPoints()), NewMap(rs.NumPoints())
			const base = 3 // a non-zero region offset, as in a Collector
			for op := isa.Op(0); int(op) < isa.NumOps(); op++ {
				var fmtKind isa.Format
				if info := op.Info(); info != nil {
					fmtKind = info.Fmt
				}
				imms := []int32{12345, -777}
				for _, v := range cfg.ImmValues {
					imms = append(imms, immCorner(v, fmtKind))
				}
				for shape := 0; shape < 27; shape++ {
					inst := isa.Inst{Op: op, Rd: isa.Reg(shape % 3), Rs1: isa.Reg(shape / 3 % 3), Rs2: isa.Reg(shape / 9)}
					for i1, v1 := range vals {
						for k := 0; k < max(len(vals), len(imms)); k++ {
							v2 := vals[k%len(vals)]
							inst.Imm = imms[(i1+k)%len(imms)]
							h.X[1], h.X[2] = uint32(v1), uint32(v2)
							oracle.eval(&inst, h, func(id uint32) { want.Hit(base + id) })
							rs.Eval(&inst, h, got, base)
							if !equalRuns(got, want) {
								t.Fatalf("%v rd=x%d rs1=x%d rs2=x%d x1=%d x2=%d imm=%d:\nplan   %v\noracle %v",
									op, inst.Rd, inst.Rs1, inst.Rs2, v1, v2, inst.Imm, runHits(got), runHits(want))
							}
							got.DiscardRun()
							want.DiscardRun()
						}
					}
				}
			}
		})
	}
}

// runHits lists the pending run's (point, count) pairs in hit order.
func runHits(m *Map) [][2]uint32 {
	out := make([][2]uint32, 0, len(m.touched))
	for _, id := range m.touched {
		out = append(out, [2]uint32{id, m.counts[id]})
	}
	return out
}

// equalRuns reports whether two maps hold the same pending run: the same
// points, first touched in the same order, with the same hit counts.
func equalRuns(a, b *Map) bool {
	if len(a.touched) != len(b.touched) {
		return false
	}
	for i, id := range a.touched {
		if b.touched[i] != id || a.counts[id] != b.counts[id] {
			return false
		}
	}
	return true
}

func TestCollectorRegions(t *testing.T) {
	c := NewCollector(V3())
	if c.NumPoints() <= 16384 {
		t.Errorf("v3 points = %d, must exceed the hash region alone", c.NumPoints())
	}
	// Distinct signals must not alias: an edge hit and a hash hit land on
	// different IDs.
	c.OnEdge(0)
	inst := isa.Inst{Op: isa.OpADD, Rd: 1, Rs1: 2, Rs2: 3, Raw: 0x003100b3}
	h := hart.New(isa.RV32I)
	c.OnInst(&inst, h)
	if !c.Map.MergeNew() {
		t.Fatal("hits must merge as new")
	}
	if c.Map.PointsCovered() < 2 {
		t.Errorf("points covered = %d, want >= 2 (edge + hash at least)", c.Map.PointsCovered())
	}
}

func TestConfigNames(t *testing.T) {
	for _, n := range []string{"v0", "v1", "v2", "v3"} {
		if _, ok := ByName(n); !ok {
			t.Errorf("ByName(%q) failed", n)
		}
	}
	if _, ok := ByName("v9"); ok {
		t.Error("ByName(v9) must fail")
	}
	v0, v1, v2, v3 := NewCollector(V0()), NewCollector(V1()), NewCollector(V2()), NewCollector(V3())
	if !(v0.NumPoints() < v1.NumPoints() && v1.NumPoints() < v2.NumPoints() && v2.NumPoints() < v3.NumPoints()) {
		t.Errorf("config sizes not increasing: %d %d %d %d",
			v0.NumPoints(), v1.NumPoints(), v2.NumPoints(), v3.NumPoints())
	}
	if v2.NumPoints()-v1.NumPoints() != 4096 || v3.NumPoints()-v1.NumPoints() != 16384 {
		t.Errorf("hash regions wrong: v1=%d v2=%d v3=%d", v1.NumPoints(), v2.NumPoints(), v3.NumPoints())
	}
}

func TestHashStability(t *testing.T) {
	f := func(w uint32) bool { return fnv1a32(w) == fnv1a32(w) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// A one-bit flip changes the hash (not a proof, a smoke check over
	// many samples).
	diff := 0
	for w := uint32(0); w < 1000; w++ {
		if fnv1a32(w) != fnv1a32(w^1) {
			diff++
		}
	}
	if diff < 990 {
		t.Errorf("hash too weak: %d/1000 differ", diff)
	}
}

var _ exec.Hook = (*Collector)(nil)

// TestRunFootprintMatchesMergeNew: a footprint lists exactly the bucket
// bits MergeNew merges, so folding footprints in run order reproduces
// MergeNew's greedy decisions and final bitmap.
func TestRunFootprintMatchesMergeNew(t *testing.T) {
	runs := [][]uint32{
		{1, 1, 2},       // novel: points 1 (x2), 2
		{1, 1, 2},       // identical: nothing new
		{1, 2, 2, 2, 3}, // new point 3, new bucket for 2
		{},              // empty run
		{3, 3, 3, 3},    // new bucket for 3
	}
	serial := NewMap(8)
	folded := make([]uint8, 8)
	bits := 0
	for _, run := range runs {
		scratch := NewMap(8)
		for _, id := range run {
			scratch.Hit(id)
		}
		got := false
		for _, p := range scratch.RunFootprint() {
			if folded[p.ID]&p.Bucket == 0 {
				folded[p.ID] |= p.Bucket
				bits++
				got = true
			}
		}
		scratch.DiscardRun()

		for _, id := range run {
			serial.Hit(id)
		}
		if want := serial.MergeNew(); got != want {
			t.Errorf("run %v: footprint novel=%v MergeNew=%v", run, got, want)
		}
	}
	if serial.BucketBits() != bits {
		t.Errorf("bucket bits: serial %d, folded %d", serial.BucketBits(), bits)
	}
	if got := serial.Frontier(); string(got) != string(folded) {
		t.Errorf("bitmap: serial %v, folded %v", got, folded)
	}
}

// TestRunFootprintLeavesRunPending: taking a footprint must not consume
// the run — MergeNew afterwards still works.
func TestRunFootprintLeavesRunPending(t *testing.T) {
	m := NewMap(4)
	m.Hit(1)
	m.Hit(1)
	fp := m.RunFootprint()
	if len(fp) != 1 || fp[0].ID != 1 || fp[0].Bucket == 0 {
		t.Fatalf("footprint: %+v", fp)
	}
	if !m.MergeNew() {
		t.Error("MergeNew after RunFootprint must still merge the run")
	}
	if m.RunFootprint() != nil {
		t.Error("footprint of an empty pending run must be nil")
	}
}

func TestFrontierRoundTrip(t *testing.T) {
	m := NewMap(64)
	for i := 0; i < 10; i++ {
		m.Hit(uint32(i))
		m.Hit(uint32(i)) // count 2 -> second bucket bit for these points
	}
	m.Hit(3)
	m.MergeNew()

	fr := m.Frontier()
	bits := m.BucketBits()

	m2 := NewMap(64)
	m2.Hit(63) // pending run state must be discarded by RestoreFrontier
	if err := m2.RestoreFrontier(fr); err != nil {
		t.Fatal(err)
	}
	if m2.BucketBits() != bits {
		t.Fatalf("bits %d != %d after restore", m2.BucketBits(), bits)
	}
	// Replaying an input the frontier has seen must not be novel; a new
	// point must be.
	for i := 0; i < 10; i++ {
		m2.Hit(uint32(i))
		m2.Hit(uint32(i))
	}
	m2.Hit(3)
	if m2.MergeNew() {
		t.Fatal("already-seen coverage reported novel after restore")
	}
	m2.Hit(40)
	if !m2.MergeNew() {
		t.Fatal("new point not novel after restore")
	}

	// Frontier must be a copy, not an alias.
	fr[0] = 0xff
	if m.Frontier()[0] == 0xff {
		t.Fatal("Frontier aliases internal state")
	}

	if err := m2.RestoreFrontier(make([]byte, 3)); err == nil {
		t.Fatal("size mismatch accepted")
	}
}
