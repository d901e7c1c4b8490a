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

	// prefixKey and prefixHits cache the coverage of the last prefix
	// SkipPrefix ran; exitKey, exitHits and exitSteps that of the last
	// shutdown sequence SkipExit ran. Map holds their sum as its
	// baseline. trapPaths caches the coverage of the last trap-handler
	// paths SkipTrap ran.
	prefixKey  any
	prefixHits []hitCount
	exitKey    any
	exitHits   []hitCount
	exitSteps  []exitStep
	trapPaths  []trapPath
}

// trapPath is the coverage of one trap-handler path.
type trapPath struct {
	key  any
	hits []hitCount
}

// maxTrapPaths bounds the trap-handler paths a Collector remembers; a
// fuzzer's simulator has at most two.
const maxTrapPaths = 8

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

// SkipPrefix lets a simulator skip executing its input-independent
// prefix under this collector. The prefix runs once per key into a
// scratch collector, whose (point, count) pairs become the prefix part
// of the map's baseline. A run leaves those pairs to the baseline unless
// no baseline could be installed or a pending run has left pairs to it
// already; then it adds them. Either way hit counts, bucket bits and
// RunFootprint are those of a run that executed the prefix.
func (c *Collector) SkipPrefix(key any, run func(exec.Hook)) {
	if key != c.prefixKey {
		scratch := NewCollector(c.opts)
		run(scratch)
		c.prefixKey, c.prefixHits = key, scratch.Map.pendingHits()
		c.Map.rebase(c.prefixHits, c.exitHits)
	}
	if !c.Map.skipPrefix() {
		c.Map.addHits(c.prefixHits)
	}
}

func (c *Collector) hitHash(inst *isa.Inst) {
	if c.opts.HashN > 0 {
		c.Map.Hit(c.hashBase + fnv1a32(inst.Raw)%uint32(c.opts.HashN))
	}
}

// SkipExit lets a simulator skip executing its shutdown sequence (the
// dump) under this collector, adding the coverage the dump records when
// executed from h. The dump runs once per key into an exitRecorder,
// which records its (point, count) pairs, the dump part of the map's
// baseline, and every step whose rules read an entry register: a
// register no earlier dump instruction wrote, so its value comes from
// h. A run that left the prefix to the baseline leaves the dump to it
// too; any other run adds the recorded pairs. Each call then compares
// every step's entry registers in h with the recorded values and, only
// where one differs, takes back the step's recorded rule hits and
// evaluates its rules against h. RuleSet.eval is pure in the operation,
// the instruction and the two values, so hit counts, bucket bits and
// RunFootprint are those of a run that executed the dump. Every other
// register value the dump reads is the one recorded: the simulator
// proved it the same whatever h holds.
func (c *Collector) SkipExit(key any, run func(exec.Hook), h *hart.Hart) {
	if key != c.exitKey {
		rec := &exitRecorder{c: NewCollector(c.opts), rule: NewMap(c.Map.Size())}
		run(rec)
		c.exitKey, c.exitHits, c.exitSteps = key, rec.c.Map.pendingHits(), rec.steps
		c.Map.rebase(c.prefixHits, c.exitHits)
	}
	if !c.Map.skipDump() {
		c.Map.addHits(c.exitHits)
	}
	for i := range c.exitSteps {
		st := &c.exitSteps[i]
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
}

// SkipTrap lets a simulator skip executing one path through the
// template's trap handler under this collector, and reports whether it
// may. A collector with rule coverage declines before touching anything:
// rule hits read the register values the handler sees, which vary from
// trap to trap. Any other collector records the path's (point, count)
// pairs once per key by watching run (edges and instruction hashes are
// the same on every execution of a path) and adds them to the run with
// one call, so hit counts, bucket bits and RunFootprint are those of a
// run that executed the path.
func (c *Collector) SkipTrap(key any, run func(exec.Hook)) bool {
	if c.opts.Rules != nil {
		return false
	}
	for i := range c.trapPaths {
		if c.trapPaths[i].key == key {
			c.Map.addHits(c.trapPaths[i].hits)
			return true
		}
	}
	scratch := NewCollector(c.opts)
	run(scratch)
	hits := scratch.Map.pendingHits()
	if len(c.trapPaths) == maxTrapPaths {
		c.trapPaths = slices.Delete(c.trapPaths, 0, 1)
	}
	c.trapPaths = append(c.trapPaths, trapPath{key, hits})
	c.Map.addHits(hits)
	return true
}

// exitStep is one dump instruction whose rules read an entry register,
// with the rule hits recorded at the recorded source values.
type exitStep struct {
	hits         []hitCount
	plan         *opPlan
	inst         isa.Inst
	rv1, rv2     int32 // the recorded source values
	live1, live2 bool  // the source is an entry register, read at run time
}

// exitRecorder is the hook SkipExit runs the dump under.
type exitRecorder struct {
	c       *Collector
	rule    *Map   // one step's rule hits
	written uint32 // integer registers the dump has written so far
	steps   []exitStep
}

func (r *exitRecorder) OnInst(inst *isa.Inst, h *hart.Hart) {
	c := r.c
	c.hitHash(inst)
	if rs := c.opts.Rules; rs != nil {
		p := &rs.plans[inst.Op]
		live1 := p.readRS1 && r.entry(inst.Rs1)
		live2 := p.readRS2 && r.entry(inst.Rs2)
		if p.fams != 0 && (live1 || live2) {
			rs.Eval(inst, h, r.rule, c.ruleBase)
			hits := r.rule.pendingHits()
			r.rule.DiscardRun()
			c.Map.addHits(hits)
			r.steps = append(r.steps, exitStep{
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

// entry reports whether reg still holds its value at dump:.
func (r *exitRecorder) entry(reg isa.Reg) bool { return reg != 0 && r.written&(1<<reg) == 0 }

func (r *exitRecorder) OnEdge(edge uint32) { r.c.OnEdge(edge) }

var _ exec.Hook = (*Collector)(nil)
