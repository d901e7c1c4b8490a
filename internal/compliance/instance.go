package compliance

import (
	"fmt"
	"os"
	"time"

	"rvnegtest/internal/obs"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/sut"
)

// instance is one simulator under the resilience harness: every run is
// guarded (panic isolation + wall-clock watchdog), consecutive harness
// faults feed a circuit breaker, and faulting inputs are quarantined.
// Each engine worker owns a private instance, so none of this needs
// locking.
type instance struct {
	name string
	// make builds a fresh simulator: called once up front and again after
	// a wedge, when the abandoned goroutine still owns the old one.
	make    func() (sim.Sim, error)
	s       sim.Sim
	breaker resilience.Breaker
	timeout time.Duration
	quar    *resilience.Quarantine
	// tel, when non-nil, times sampled runs and receives traps, the
	// executor trap counts of completed runs summed since the last
	// publish (trap-family campaigns take thousands of deliberate round
	// trips; the sum makes that volume observable).
	tel   *runnerTelemetry
	traps uint64

	// adapter, when non-nil, marks an external column: runs go through
	// the subprocess adapter protocol instead of an in-process simulator,
	// and the adapter owns its own watchdog/restart/backoff machinery.
	adapter *sut.Adapter
	// family/config are the RUN frame parameters for external columns.
	family byte
	config string
	// events, when non-nil, emits adapter lifecycle events (the caller
	// pre-binds sim/worker/config labels).
	events func(obs.Event)
}

func newInstance(name string, make func() (sim.Sim, error), threshold int, timeout time.Duration, quar *resilience.Quarantine) (*instance, error) {
	s, err := make()
	if err != nil {
		return nil, err
	}
	return &instance{
		name:    name,
		make:    make,
		s:       s,
		breaker: resilience.Breaker{Threshold: threshold},
		timeout: timeout,
		quar:    quar,
	}, nil
}

// run executes one case under the harness. harnessFault reports that the
// outcome was synthesized by the harness (isolated panic, reaped wedge,
// or failed adapter exchange) rather than returned by the simulator's
// own error handling — only those count against the breaker, because
// modeled Crashed/TimedOut outcomes are the measurements Phase B exists
// to take. noVerdict additionally marks adapter-level failures whose
// outcome carries no verdict at all: the case must be recorded as
// adapter-skipped, not as a crash finding (in-process instances never
// set it, keeping their cells byte-identical to the pre-adapter engine).
// The runs of every obs.SampleEvery-th case index i are timed as the
// execute stage; sampling by case index keeps the stage counts the same
// at every worker count.
func (in *instance) run(i int, bs []byte) (out sim.Outcome, harnessFault, noVerdict bool) {
	if in.tel != nil && i%obs.SampleEvery == 0 {
		defer in.tel.reg.Lap(obs.StageExecute, time.Now())
	}
	if in.adapter != nil {
		return in.runExternal(bs)
	}
	// The guarded run holds the simulator: after a wedge in.s is replaced
	// while the abandoned goroutine still uses the old one.
	out, rec, timedOut := resilience.Guard(in.timeout, simRun.run, simRun{in.s, bs})
	switch {
	case rec != nil:
		in.breaker.RecordFault()
		in.quarantineWarn(bs, fmt.Sprintf("%s panic: %s\n\n%s", in.name, rec.Msg, rec.Stack))
		return sim.Outcome{Crashed: true, CrashMsg: rec.Msg}, true, false
	case timedOut:
		in.breaker.RecordFault()
		in.quarantineWarn(bs, fmt.Sprintf("%s watchdog: no result within %v", in.name, in.timeout))
		// The reaped goroutine still owns the old simulator; replace it.
		if s, err := in.make(); err == nil {
			in.s = s
		} else {
			in.breaker.Trip()
		}
		return sim.Outcome{TimedOut: true}, true, false
	}
	in.breaker.RecordOK()
	in.traps += out.Traps
	return out, false, false
}

// simRun is one guarded run of bs on s.
type simRun struct {
	s  sim.Sim
	bs []byte
}

func (r simRun) run() sim.Outcome { return r.s.Run(r.bs) }

// runExternal is the external-column run path: one protocol round trip
// through the adapter, which internally retries with kill-and-restart
// and backoff. A surviving adapter fault feeds the breaker and is
// quarantined with its protocol context (last frame type, stderr tail);
// the case then carries no verdict. The adapter owns its own
// wall-clock watchdog.
func (in *instance) runExternal(bs []byte) (sim.Outcome, bool, bool) {
	res, f := in.adapter.Run(in.family, in.config, bs)
	if f != nil {
		in.breaker.RecordFault()
		in.quarantineWarn(bs, fmt.Sprintf("%s adapter fault: %s", in.name, f.Detail()))
		if in.events != nil {
			in.events(obs.Event{Type: "adapter_fault", Detail: f.Reason})
		}
		return sim.Outcome{CrashMsg: "adapter: " + f.Reason}, true, true
	}
	in.breaker.RecordOK()
	in.traps += res.Traps
	return sim.Outcome{
		Signature: res.Signature,
		Crashed:   res.Crashed,
		TimedOut:  res.TimedOut,
		CrashMsg:  res.Msg,
		Insts:     res.Insts,
		Traps:     res.Traps,
	}, false, false
}

// publish moves the instance's trap sum into the registry.
func (in *instance) publish() {
	if in.tel != nil {
		in.tel.traps.Add(in.traps)
		in.traps = 0
	}
}

// close releases the instance's process resources (external adapters
// only; in-process simulators need no teardown).
func (in *instance) close() {
	if in.adapter != nil {
		in.adapter.Close()
	}
}

func (in *instance) quarantineWarn(bs []byte, detail string) {
	if err := in.quar.Save(bs, detail); err != nil {
		fmt.Fprintf(os.Stderr, "compliance: quarantine: %v\n", err)
	}
}
