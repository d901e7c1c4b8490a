package bench

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rvnegtest/internal/coverage"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// fuzzConfig is the campaign configuration of a fuzz workload: the
// paper's Phase A setup (v3 coverage, RV32GC, user template) or the
// edge-only campaign on the trap-recording template.
func fuzzConfig(workload string, seed int64) fuzz.Config {
	cfg := fuzz.DefaultConfig()
	cfg.Seed = seed
	if workload == FuzzV0Trap {
		cfg.Coverage = coverage.V0()
		cfg.Family = template.FamilyTrap
	}
	return cfg
}

// fuzzLaps is how many laps of equal executions an untraced fuzz
// repetition is timed in, with a probe between laps (see refClock).
const fuzzLaps = 8

// runFuzz repeats one fresh campaign of Size.FuzzExecs executions. A
// traced repetition installs the timing decorator through
// fuzz.Config.NewTarget and drives Fuzzer.Step itself, so every step
// span has the hooked run as its child.
func runFuzz(ctx context.Context, res *Result, opt Options) error {
	heap := startHeapSampler()
	defer heap.stop()
	cfg := fuzzConfig(res.Workload, opt.Seed)
	newSim := func(p template.Platform) (sim.HookedSim, error) {
		s, err := sim.New(sim.Reference, p)
		if err != nil {
			return nil, err
		}
		if opt.wrapTarget != nil {
			return opt.wrapTarget(s), nil
		}
		return s, nil
	}
	if opt.wrapTarget != nil {
		cfg.NewTarget = newSim
	}
	// Each timed set-up is followed by a collection, so the next one
	// starts from a collected heap as in a fresh process instead of
	// paying for its predecessor's garbage.
	var setup setupTimes
	newFuzzer := func() (func(), error) {
		_, err := fuzz.New(cfg)
		return runtime.GC, err
	}

	tr := newTracer()
	smp := &sampler{limit: opt.Size.MicroInputs}
	var reps []Outputs
	var times repTimes
	var wallT, ckptMS []float64
	var rt runtimeRec
	var last fuzz.Stats
	n := opt.Size.FuzzExecs
	err := repeat(ctx, opt.Reps, func(i int) error {
		traced := tracedRep(opt, i)
		c := cfg
		if traced {
			// Only the first traced repetition samples inputs; later
			// ones would replay the same campaign.
			sample := smp
			if i > 1 {
				sample = nil
			}
			c.NewTarget = func(p template.Platform) (sim.HookedSim, error) {
				s, err := newSim(p)
				if err != nil {
					return nil, err
				}
				return &timedSim{inner: s, tr: tr, sample: sample}, nil
			}
		}
		f, err := fuzz.New(c)
		if err != nil {
			return err
		}
		before := readMem()
		var clock *refClock
		t0 := time.Now()
		if traced {
			for f.Execs() < n {
				tr.child = 0
				s0 := time.Now()
				f.Step()
				d := time.Since(s0)
				tr.record("fuzz.step", d, d-tr.child)
			}
		} else {
			clock = startClock()
			for k := uint64(1); k <= fuzzLaps; k++ {
				if err := f.RunContext(ctx, n*k/fuzzLaps, 0); err != nil {
					return err
				}
				clock.lap()
			}
		}
		wall := time.Since(t0)
		st := f.Stats()
		reps = append(reps, Outputs{
			Digests:   map[string]string{"corpus": digest(f.Corpus()...)},
			TestCases: st.TestCases,
			CovBits:   st.CovBits,
		})
		res.Attempted += st.Execs
		res.Failed += st.HarnessFaults
		last = st
		if !traced {
			if opt.Trace {
				rt.add(before, st.Execs)
			}
			times.add(float64(st.Execs), clock)
		} else {
			wallT = append(wallT, wall.Seconds())
			dir := filepath.Join(opt.Dir, "fuzz-checkpoint")
			t1 := time.Now()
			if err := f.SaveCheckpoint(dir); err != nil {
				return err
			}
			ckptMS = append(ckptMS, float64(time.Since(t1).Nanoseconds())/1e6)
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
		return setup.record(opt.Size.FuzzSetups, newFuzzer)
	})
	if err != nil {
		return err
	}
	res.Outputs = reps[0]

	m := res.Metrics
	if !opt.Trace {
		res.checkSame("reps_identical", reps)
		setup.report(m)
		times.report(m)
		m["live_heap_mb"] = heap.stop()
		return nil
	}
	res.checkSame("traced_identical", reps)
	step, hooked := tr.summary("fuzz.step"), tr.summary("sim.run_hooked")
	m["fuzz.step.mean_ns"] = one("ns", step.MeanNS)
	m["fuzz.step.p50_ns"] = one("ns", step.P50NS)
	m["fuzz.step.p99_ns"] = one("ns", step.P99NS)
	m["fuzz.step.self_ns"] = one("ns", float64(step.SelfNS)/float64(step.Count))
	accepted := last.Execs - last.Dropped
	m["fuzz.accept_ratio"] = one("ratio", float64(accepted)/float64(last.Execs))
	m["fuzz.novel_ratio"] = one("ratio", float64(last.TestCases)/float64(max(accepted, 1)))
	m["fuzz.checkpoint.ms"] = statOf("ms", ckptMS)
	m["sim.run_hooked.mean_ns"] = one("ns", hooked.MeanNS)
	m["sim.run_hooked.share"] = one("ratio", float64(hooked.TotalNS)/float64(step.TotalNS))
	m["test_cases"] = one("cases", float64(res.Outputs.TestCases))
	m["cov_bits"] = one("bits", float64(res.Outputs.CovBits))
	rt.report(m)
	overhead(m, times.walls, wallT)
	res.Spans = tr.summaries()
	return microbench(m, smp.inputs, cfg.Family, cfg.Coverage)
}
