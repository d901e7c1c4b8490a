package bench

import (
	"context"
	"runtime"
	"time"

	"rvnegtest/internal/compliance"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// complianceLap is the shortest lap an untraced compliance pass is timed
// in (see refClock); one simulator's pass over the suite on one
// configuration takes about 70 ms.
const complianceLap = 200 * time.Millisecond

// runCompliance generates the Table I suite from the seed (untimed input
// generation), then repeats full DefaultRunner passes at one worker. A
// traced pass installs the timing decorator through
// compliance.Runner.NewSim. After the timed passes one untimed pass at
// two workers must reproduce the report.
func runCompliance(ctx context.Context, res *Result, opt Options) error {
	suite, gst, err := generateSuite(ctx, opt.Seed, opt.Size.GenExecs)
	if err != nil {
		return err
	}
	heap := startHeapSampler()
	defer heap.stop()

	runner := func(workers int) *compliance.Runner {
		r := compliance.DefaultRunner()
		r.Workers = workers
		return r
	}
	var setup setupTimes
	newFleet := func() (func(), error) { return runtime.GC, buildFleet(runner(1), suite.Family) }

	tr := newTracer()
	var reps []Outputs
	var times repTimes
	var wallT []float64
	var rt runtimeRec
	err = repeat(ctx, opt.Reps, func(i int) error {
		traced := tracedRep(opt, i)
		r := runner(1)
		if traced {
			r.NewSim = timedFleet(tr)
		}
		before := readMem()
		var clock *refClock
		if !traced {
			clock = startClock()
			// At one worker the runner reports progress after each
			// simulator's pass over one configuration, from the goroutine
			// that runs the passes: a lap point between two passes.
			r.Progress = func(compliance.ProgressEvent) { clock.lapAfter(complianceLap) }
		}
		t0 := time.Now()
		rep, err := r.RunContext(ctx, suite)
		if err != nil {
			return err
		}
		wall := time.Since(t0)
		if clock != nil {
			clock.lap()
		}
		o, err := reportOutputs(suite, gst, rep)
		if err != nil {
			return err
		}
		reps = append(reps, o)
		execs := uint64(r.Stats.Execs)
		res.Attempted += execs
		res.Failed += failedCases(rep)
		if traced {
			wallT = append(wallT, wall.Seconds())
		} else {
			if opt.Trace {
				rt.add(before, execs)
			}
			times.add(float64(execs), clock)
		}
		return setup.record(opt.Size.FleetSetups, newFleet)
	})
	if err != nil {
		return err
	}
	res.Outputs = reps[0]

	r := runner(2)
	rep, err := r.RunContext(ctx, suite)
	if err != nil {
		return err
	}
	o, err := reportOutputs(suite, gst, rep)
	if err != nil {
		return err
	}
	res.check("workers_identical", sameOutputs(o, reps[0]), "report at 2 workers %v, at 1 worker %v", o.Digests, reps[0].Digests)

	m := res.Metrics
	if !opt.Trace {
		res.checkSame("reps_identical", reps)
		setup.report(m)
		times.report(m)
		m["live_heap_mb"] = heap.stop()
		return nil
	}
	res.checkSame("traced_identical", reps)
	run := tr.summary("sim.run")
	var tracedS float64
	for _, w := range wallT {
		tracedS += w
	}
	m["compliance.pass.s"] = statOf("s", times.walls)
	m["compliance.sim_run.mean_ns"] = one("ns", run.MeanNS)
	m["compliance.sim_run.share"] = one("ratio", float64(run.TotalNS)/1e9/tracedS)
	m["compliance.fleet_setup.ms"] = one("ms", statOf("s", setup.wall).Value*1e3)
	m["test_cases"] = one("cases", float64(res.Outputs.TestCases))
	m["cov_bits"] = one("bits", float64(res.Outputs.CovBits))
	rt.report(m)
	overhead(m, times.walls, wallT)
	res.Spans = tr.summaries()
	return microbench(m, everyEighth(suite.Cases, opt.Size.MicroInputs), suite.Family, fuzzConfig(FuzzV3User, opt.Seed).Coverage)
}

// generateSuite runs the Phase A campaign that makes the workload's
// input: the suite fuzz-v3-user generates for the seed.
func generateSuite(ctx context.Context, seed int64, execs uint64) (*compliance.Suite, fuzz.Stats, error) {
	f, err := fuzz.New(fuzzConfig(FuzzV3User, seed))
	if err != nil {
		return nil, fuzz.Stats{}, err
	}
	if err := f.RunContext(ctx, execs, 0); err != nil {
		return nil, fuzz.Stats{}, err
	}
	return &compliance.Suite{Cases: f.Corpus()}, f.Stats(), nil
}

// buildFleet instantiates every simulator a pass of the runner uses: the
// reference and each supporting SUT per configuration (13 for Table I).
func buildFleet(r *compliance.Runner, fam template.Family) error {
	for _, cfg := range r.Configs {
		p := template.PlatformFor(fam, cfg)
		for _, v := range append([]*sim.Variant{r.Ref}, r.SUTs...) {
			if !v.Supports(cfg) {
				continue
			}
			if _, err := sim.New(v, p); err != nil {
				return err
			}
		}
	}
	return nil
}

// timedFleet is a compliance.Runner.NewSim factory that wraps each
// simulator the runner builds in the timing decorator.
func timedFleet(tr *tracer) func(*sim.Variant, template.Platform) (sim.Sim, error) {
	return func(v *sim.Variant, p template.Platform) (sim.Sim, error) {
		s, err := sim.New(v, p)
		if err != nil {
			return nil, err
		}
		return &timedSim{inner: s, tr: tr}, nil
	}
}

// reportOutputs digests a compliance pass: the suite it ran and the
// rendered and JSON reports.
func reportOutputs(suite *compliance.Suite, gen fuzz.Stats, rep *compliance.Report) (Outputs, error) {
	js, err := rep.JSON()
	if err != nil {
		return Outputs{}, err
	}
	return Outputs{
		Digests: map[string]string{
			"suite":  digest(suite.Cases...),
			"report": digest([]byte(rep.Render()), js),
		},
		TestCases: gen.TestCases,
		CovBits:   gen.CovBits,
	}, nil
}

// failedCases counts the executions a report lost to harness faults,
// tripped breakers or failed adapters.
func failedCases(rep *compliance.Report) uint64 {
	var n int
	for _, row := range rep.Cells {
		for _, c := range row {
			n += c.HarnessFaults + c.SkippedUnhealthy + c.SkippedAdapter
		}
	}
	return uint64(n)
}

// everyEighth returns every 8th case, at most limit of them.
func everyEighth(cases [][]byte, limit int) [][]byte {
	s := &sampler{limit: limit}
	for _, c := range cases {
		s.add(c)
	}
	return s.inputs
}
