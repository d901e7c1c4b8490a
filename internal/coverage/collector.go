package coverage

import (
	"fmt"
	"slices"

	"rvnegtest/internal/exec"
	"rvnegtest/internal/hart"
	"rvnegtest/internal/isa"
)

// Options selects the coverage signals of a fuzzing configuration; the
// paper's v0..v3 configurations are combinations of these (section V-A).
type Options struct {
	// Edges enables simulator code coverage (executor semantic edges).
	Edges bool
	// Rules enables the custom rule coverage with the given set.
	Rules *RuleSet
	// HashN enables hash coverage with N points (0 disables it).
	HashN int
}

// V0 is code coverage only.
func V0() Options { return Options{Edges: true} }

// V1 adds the custom coverage rules of DefaultSpec. DefaultSpec is a
// compile-time constant validated by tests, so a parse failure is an
// invariant violation, not an input error — the panic is kept.
func V1() Options {
	cfg, err := ParseSpec(DefaultSpec)
	if err != nil {
		//rvlint:allow panicgate -- compile-time-constant spec; a parse failure is an invariant violation
		panic(fmt.Sprintf("coverage: built-in DefaultSpec failed to parse: %v", err))
	}
	return Options{Edges: true, Rules: NewRuleSet(cfg)}
}

// V2 adds 4096-point hash coverage to V1.
func V2() Options { o := V1(); o.HashN = 4096; return o }

// V3 adds 16384-point hash coverage to V1.
func V3() Options { o := V1(); o.HashN = 16384; return o }

// ByName returns a named configuration ("v0".."v3").
func ByName(name string) (Options, bool) {
	switch name {
	case "v0":
		return V0(), true
	case "v1":
		return V1(), true
	case "v2":
		return V2(), true
	case "v3":
		return V3(), true
	}
	return Options{}, false
}

// Collector implements exec.Hook, recording all enabled signals into one
// coverage map with disjoint ID regions.
type Collector struct {
	Map *Map

	opts     Options
	edgeBase uint32
	ruleBase uint32
	hashBase uint32

	// regions holds the last maxRegions regions Skip recorded, oldest
	// first; parts the prefix (slot 0) and the dump (slot 1) whose sum
	// Map holds as its baseline.
	regions []region
	parts   [2]region
}

// region is the coverage of one stretch of the template's
// input-independent code a simulator hands to Skip: its (point, count)
// pairs and its live steps.
type region struct {
	key   any
	hits  []hitCount
	steps []liveStep
}

// maxRegions bounds the regions a Collector remembers; a fuzzer's
// simulator has at most four: its prefix, its dump and two handler
// paths.
const maxRegions = 8

// NewCollector allocates the coverage map for the enabled signals.
func NewCollector(opts Options) *Collector {
	c := &Collector{opts: opts}
	size := uint32(0)
	if opts.Edges {
		c.edgeBase = size
		size += uint32(exec.EdgeSpace())
	}
	if opts.Rules != nil {
		c.ruleBase = size
		size += uint32(opts.Rules.NumPoints())
	}
	if opts.HashN > 0 {
		c.hashBase = size
		size += uint32(opts.HashN)
	}
	c.Map = NewMap(int(size))
	return c
}

// NumPoints returns the total number of coverage points across signals.
func (c *Collector) NumPoints() int { return c.Map.Size() }

// OnEdge implements exec.Hook.
func (c *Collector) OnEdge(edge uint32) {
	if c.opts.Edges {
		c.Map.Hit(c.edgeBase + edge)
	}
}

// OnInst implements exec.Hook.
func (c *Collector) OnInst(inst *isa.Inst, h *hart.Hart) {
	c.hitHash(inst)
	if c.opts.Rules != nil {
		c.opts.Rules.Eval(inst, h, c.Map, c.ruleBase)
	}
}

func (c *Collector) hitHash(inst *isa.Inst) {
	if c.opts.HashN > 0 {
		c.Map.Hit(c.hashBase + fnv1a32(inst.Raw)%uint32(c.opts.HashN))
	}
}

// Skip lets a simulator skip executing one region of its template's
// input-independent code under this collector, and reports whether it
// may. run executes the region with the given hook attached, key
// identifies it (equal keys, equal code), and slot is 0 for the prefix,
// 1 for the dump and -1 for a trap-handler path. h is the hart the
// region starts from, or nil when the register values the region reads
// vary from pass to pass (a handler path): a collector with rule
// coverage declines such a region before touching anything, since rule
// hits read those values. Otherwise the region runs once per key under a
// recorder, which keeps its (point, count) pairs and, for a collector
// with rules, every step whose rules read an entry register: one no
// earlier instruction of the region wrote, so that its value comes from
// h. The region in slot 0 or 1 is that part of the map's baseline: a run
// that left every earlier part to the baseline leaves this one too, and
// any other run adds its pairs. A region in slot -1 adds its pairs on
// every pass. Skip then compares every step's entry registers in h with
// the recorded values and, only where one differs, takes back the step's
// recorded rule hits and evaluates its rules against h. RuleSet.eval is
// pure in the operation, the instruction and the two values, so hit
// counts, bucket bits and RunFootprint are those of a run that executed
// the region. Every other register value the region reads is the one
// recorded: the simulator proved it the same whatever h holds.
func (c *Collector) Skip(key any, run func(exec.Hook), h *hart.Hart, slot int) bool {
	if h == nil && c.opts.Rules != nil {
		return false
	}
	var r *region
	if slot >= 0 && c.parts[slot].key == key {
		r = &c.parts[slot]
	} else {
		r = c.region(key, run)
		if slot >= 0 {
			c.parts[slot] = *r
			c.Map.rebase([][]hitCount{c.parts[0].hits, c.parts[1].hits})
		}
	}
	if slot < 0 || !c.Map.leave(slot) {
		c.Map.addHits(r.hits)
	}
	for i := range r.steps {
		st := &r.steps[i]
		rv1, rv2 := st.rv1, st.rv2
		if st.live1 {
			rv1 = int32(h.ReadX(st.inst.Rs1))
		}
		if st.live2 {
			rv2 = int32(h.ReadX(st.inst.Rs2))
		}
		if rv1 != st.rv1 || rv2 != st.rv2 {
			c.Map.subHits(st.hits)
			c.opts.Rules.eval(st.plan, &st.inst, rv1, rv2, c.Map, c.ruleBase)
		}
	}
	return true
}

// region returns the region recorded under key, running it under a
// recorder if the collector does not remember one. The recorder hits
// the collector's own map, and Map.record takes those hits back out as
// the region's pairs, so recording allocates no coverage map of its own.
func (c *Collector) region(key any, run func(exec.Hook)) *region {
	for i := range c.regions {
		if c.regions[i].key == key {
			return &c.regions[i]
		}
	}
	rec := &recorder{c: c}
	hits := c.Map.record(func() { run(rec) })
	if len(c.regions) == maxRegions {
		c.regions = slices.Delete(c.regions, 0, 1)
	}
	c.regions = append(c.regions, region{key: key, hits: hits, steps: rec.steps})
	return &c.regions[len(c.regions)-1]
}

// liveStep is one region instruction whose rules read an entry
// register, with the rule hits recorded at the recorded source values.
type liveStep struct {
	hits         []hitCount
	plan         *opPlan
	inst         isa.Inst
	rv1, rv2     int32 // the recorded source values
	live1, live2 bool  // the source is an entry register, read at run time
}

// recorder is the hook Skip records a region under.
type recorder struct {
	c       *Collector
	rule    *Map   // one step's rule hits, by rule point; nil until the first live step
	written uint32 // integer registers the region has written so far
	steps   []liveStep
}

func (r *recorder) OnInst(inst *isa.Inst, h *hart.Hart) {
	c := r.c
	c.hitHash(inst)
	if rs := c.opts.Rules; rs != nil {
		p := &rs.plans[inst.Op]
		live1 := p.readRS1 && r.entry(inst.Rs1)
		live2 := p.readRS2 && r.entry(inst.Rs2)
		if p.fams != 0 && (live1 || live2) {
			if r.rule == nil {
				r.rule = NewMap(rs.NumPoints())
			}
			rs.Eval(inst, h, r.rule, 0)
			hits := r.rule.pendingHits()
			r.rule.DiscardRun()
			for i := range hits {
				hits[i].id += c.ruleBase
			}
			c.Map.addHits(hits)
			r.steps = append(r.steps, liveStep{
				hits: hits, plan: p, inst: *inst,
				rv1: int32(h.ReadX(inst.Rs1)), rv2: int32(h.ReadX(inst.Rs2)),
				live1: live1, live2: live2,
			})
		} else {
			rs.Eval(inst, h, c.Map, c.ruleBase)
		}
	}
	if inst.Info().Flags.Is(isa.FlagWritesRD) {
		r.written |= 1 << inst.Rd
	}
}

// entry reports whether reg still holds its value at the region's start.
func (r *recorder) entry(reg isa.Reg) bool { return reg != 0 && r.written&(1<<reg) == 0 }

func (r *recorder) OnEdge(edge uint32) { r.c.OnEdge(edge) }

var _ exec.Hook = (*Collector)(nil)
