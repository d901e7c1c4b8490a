package coverage

import (
	"fmt"

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
}

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
	if c.opts.HashN > 0 {
		c.Map.Hit(c.hashBase + fnv1a32(inst.Raw)%uint32(c.opts.HashN))
	}
	if c.opts.Rules != nil {
		c.opts.Rules.Eval(inst, h, c.Map, c.ruleBase)
	}
}

var _ exec.Hook = (*Collector)(nil)
