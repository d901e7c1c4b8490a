package bench

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"rvnegtest/internal/campaign"
	"rvnegtest/internal/compliance"
	"rvnegtest/internal/fuzz"
	"rvnegtest/internal/obs"
)

// runDaemon drives the campaign service path in process: each repetition
// opens a one-slot campaign.Scheduler over a fresh job store, submits one
// fuzz job and one compliance job from one client, and waits for both.
// The scheduler carries a telemetry registry like the daemon's, and its
// execution counters give the work done. Set-up is restarting the daemon
// over the repetition's store, as rvnegtestd recovers its finished jobs
// after a restart. A traced repetition also attaches an event stream and
// records spans around Submit and Wait.
func runDaemon(ctx context.Context, res *Result, opt Options) error {
	heap := startHeapSampler()
	defer heap.stop()
	stores := filepath.Join(opt.Dir, "daemon-stores")
	if err := os.RemoveAll(stores); err != nil {
		return err
	}
	defer os.RemoveAll(stores)
	specs := []campaign.JobSpec{{
		Kind:            campaign.KindFuzz,
		Cov:             "v3",
		Seed:            opt.Seed,
		Execs:           opt.Size.JobFuzzExecs,
		Workers:         2,
		CheckpointEvery: opt.Size.JobCheckpointEvery,
		Minimize:        true,
	}, {
		Kind:    campaign.KindCompliance,
		Suite:   "user",
		Seed:    opt.Seed,
		Execs:   opt.Size.JobGenExecs,
		Workers: 2,
	}}
	open := func(dir string, events *obs.EventLog) (*campaign.Scheduler, *obs.Registry, error) {
		store, err := campaign.OpenStore(dir)
		if err != nil {
			return nil, nil, err
		}
		reg := obs.NewRegistry()
		s, err := campaign.Open(store, campaign.SchedulerConfig{Slots: 1, Obs: reg, Events: events})
		if err != nil {
			return nil, nil, err
		}
		s.Start()
		return s, reg, nil
	}

	tr := newTracer()
	var setup setupTimes
	var reps []Outputs
	var times repTimes
	var jobsPerMin, wallT, queueMS, minimizeS []float64
	runS := map[campaign.Kind][]float64{}
	var rt runtimeRec
	var suite *compliance.Suite
	err := repeat(ctx, opt.Reps, func(i int) error {
		traced := tracedRep(opt, i)
		var events *obs.EventLog
		var stream bytes.Buffer
		if traced {
			events = obs.NewEventLog(&stream)
		}
		dir := filepath.Join(stores, strconv.Itoa(i))
		before := readMem()
		r, err := daemonRound(ctx, tr, traced, specs, func() (*campaign.Scheduler, *obs.Registry, error) { return open(dir, events) })
		if err != nil {
			return err
		}
		o := Outputs{Digests: map[string]string{}}
		for _, job := range r.jobs {
			res.Attempted++
			if job.State != campaign.StateDone {
				res.Failed++
				continue
			}
			if err := digestArtifacts(o.Digests, r.store, job); err != nil {
				return err
			}
			queueMS = append(queueMS, float64(job.StartedNS-job.SubmittedNS)/1e6)
			runS[job.Spec.Kind] = append(runS[job.Spec.Kind], float64(job.FinishedNS-job.StartedNS)/1e9)
		}
		if fj := r.jobs[0]; fj.State != campaign.StateDone {
			return fmt.Errorf("fuzz job %s ended %s: %s", fj.ID, fj.State, fj.Error)
		}
		if suite == nil {
			path := filepath.Join(r.store.ArtifactsDir(r.jobs[0].ID), campaign.ArtifactSuite)
			if suite, err = compliance.LoadSuite(path); err != nil {
				return err
			}
		}
		o.TestCases = len(suite.Cases)
		reps = append(reps, o)

		if traced {
			wallT = append(wallT, r.wall.Seconds())
			if err := events.Close(); err != nil {
				return err
			}
			d, err := minimizeTime(&stream, r.jobs[0].ID)
			if err != nil {
				return err
			}
			minimizeS = append(minimizeS, d.Seconds())
		} else {
			if opt.Trace {
				rt.add(before, r.execs)
			}
			times.add(float64(r.execs), r.clock)
			jobsPerMin = append(jobsPerMin, float64(len(r.jobs))/r.wall.Minutes())
		}
		// The round leaves its jobs' garbage behind; collecting it first
		// keeps the GC it would set off out of the set-up samples.
		runtime.GC()
		err = setup.record(opt.Size.DaemonSetups, func() (func(), error) {
			s, _, err := open(dir, nil)
			if err != nil {
				return nil, err
			}
			return s.Close, nil
		})
		if err != nil {
			return err
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return err
	}
	res.Outputs = reps[0]
	if res.Outputs.CovBits, err = fuzz.CoverageBits(suite.Cases, fuzzConfig(FuzzV3User, opt.Seed)); err != nil {
		return err
	}

	m := res.Metrics
	if !opt.Trace {
		res.checkSame("reps_identical", reps)
		setup.report(m)
		times.report(m)
		m["live_heap_mb"] = heap.stop()
		return nil
	}
	res.checkSame("traced_identical", reps)
	m["campaign.jobs_per_min"] = statOf("jobs/min", jobsPerMin)
	m["campaign.submit.us"] = one("us", tr.summary("campaign.submit").MeanNS/1e3)
	m["campaign.queue_wait.ms"] = statOf("ms", queueMS)
	m["campaign.run.fuzz_s"] = statOf("s", runS[campaign.KindFuzz])
	m["campaign.run.compliance_s"] = statOf("s", runS[campaign.KindCompliance])
	m["campaign.minimize.s"] = statOf("s", minimizeS)
	m["test_cases"] = one("cases", float64(res.Outputs.TestCases))
	m["cov_bits"] = one("bits", float64(res.Outputs.CovBits))
	rt.report(m)
	overhead(m, times.walls, wallT)
	res.Spans = tr.summaries()
	cfg := fuzzConfig(FuzzV3User, opt.Seed)
	return microbench(m, everyEighth(suite.Cases, opt.Size.MicroInputs), cfg.Family, cfg.Coverage)
}

// round is one daemon repetition's outcome.
type round struct {
	jobs  []*campaign.Job
	store *campaign.Store
	wall  time.Duration
	// clock times an untraced round in wall and reference seconds.
	clock *refClock
	// execs is the fuzz and compliance executions the daemon's
	// telemetry counted.
	execs uint64
}

// daemonRound opens a scheduler, submits the specs, waits for every job
// and closes the scheduler again.
func daemonRound(ctx context.Context, tr *tracer, traced bool, specs []campaign.JobSpec, open func() (*campaign.Scheduler, *obs.Registry, error)) (*round, error) {
	s, reg, err := open()
	if err != nil {
		return nil, err
	}
	defer s.Close()
	r := &round{store: s.Store()}
	// The jobs run on the scheduler's goroutines, so an untraced round
	// is timed in one lap, between a probe before the first submission and
	// one after the last job ended.
	if !traced {
		r.clock = startClock()
	}
	t0 := time.Now()
	var ids []string
	for _, spec := range specs {
		s0 := time.Now()
		job, err := s.Submit(spec)
		if err != nil {
			return nil, err
		}
		if traced {
			tr.leaf("campaign.submit", time.Since(s0))
		}
		ids = append(ids, job.ID)
	}
	for _, id := range ids {
		w0 := time.Now()
		job, err := s.Wait(ctx, id)
		if err != nil {
			return nil, err
		}
		if traced {
			tr.leaf("campaign.wait", time.Since(w0))
		}
		r.jobs = append(r.jobs, job)
	}
	r.wall = time.Since(t0)
	if r.clock != nil {
		r.clock.lap()
	}
	snap := reg.TakeSnapshot()
	r.execs = snap.Counters["rvnegtest_fuzz_execs_total"] + snap.Counters["rvnegtest_compliance_execs_total"]
	return r, nil
}

// digestArtifacts adds the digest of each of the job's artifact files,
// keyed by job kind and file name.
func digestArtifacts(into map[string]string, store *campaign.Store, job *campaign.Job) error {
	files, err := store.Artifacts(job.ID)
	if err != nil {
		return err
	}
	for _, f := range files {
		b, err := os.ReadFile(filepath.Join(store.ArtifactsDir(job.ID), f.Name))
		if err != nil {
			return err
		}
		into[string(job.Spec.Kind)+"/"+f.Name] = digest(b)
	}
	return nil
}

// minimizeTime reads a fuzz job's event stream and returns the time from
// its last worker finishing (stage_summary) to the end of the campaign
// (campaign_done): the merged corpus's minimization.
func minimizeTime(stream *bytes.Buffer, job string) (time.Duration, error) {
	evs, err := obs.ReadEvents(stream)
	if err != nil {
		return 0, err
	}
	var workersDone, done int64 = -1, -1
	for _, ev := range evs {
		if ev.Job != job {
			continue
		}
		switch ev.Type {
		case "stage_summary":
			workersDone = max(workersDone, ev.TNS)
		case "campaign_done":
			done = ev.TNS
		}
	}
	if workersDone < 0 || done < 0 {
		return 0, fmt.Errorf("event stream of %s lacks stage_summary or campaign_done", job)
	}
	return time.Duration(done - workersDone), nil
}
