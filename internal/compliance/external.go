// External SUT columns: out-of-process simulators joining Table I next
// to the built-in behavioural variants.
//
// An external SUT is described by a sut.Spec (command line plus
// supervision knobs) and speaks the adapter protocol of internal/sut.
// The engine treats it as one more report column: each worker owns a
// private Adapter (mirroring the per-worker simulators), the
// adapter heals transient failures by kill-and-restart with backoff, and
// failures that survive the retry budget are recorded as adapter-skipped
// cases — infrastructure problems, kept strictly apart from the modeled
// crash/timeout findings. A persistently failing adapter trips the same
// circuit breaker as an in-process simulator, but with half-open
// recovery enabled: external targets can genuinely heal (the operator
// restarts the backend, the machine recovers), so after a cool-down
// counted in skipped runs the breaker re-admits a probe.
package compliance

import (
	"fmt"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/obs"
	"rvnegtest/internal/resilience"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/sut"
	"rvnegtest/internal/template"
)

// DefaultHalfOpenAfter is the number of breaker-skipped runs after which
// an external SUT's open breaker admits a recovery probe when
// Runner.HalfOpenAfter is zero.
const DefaultHalfOpenAfter = 25

// halfOpenAfter resolves the external-breaker recovery knob.
func (r *Runner) halfOpenAfter() int {
	switch {
	case r.HalfOpenAfter < 0:
		return 0 // stay-open, like in-process breakers
	case r.HalfOpenAfter == 0:
		return DefaultHalfOpenAfter
	}
	return r.HalfOpenAfter
}

// column is one SUT column of the report: a built-in variant or an
// external adapter. Exactly one of variant/spec is non-nil.
type column struct {
	name    string
	variant *sim.Variant
	spec    *sut.Spec
	// info/probed hold the capability preflight result for external
	// columns; an unprobed column is treated optimistically (every
	// configuration attempted) so a flaky adapter degrades into skipped
	// cells instead of silently rendering "/".
	info   sut.Info
	probed bool
}

// supports reports whether the column's SUT implements (cfg, fam):
// built-ins answer from the variant model, externals from the handshake
// capability bits.
func (c *column) supports(cfg isa.Config, fam template.Family) bool {
	if c.variant != nil {
		return c.variant.Supports(cfg)
	}
	if !c.probed {
		return true
	}
	if cfg.HasFP() && c.info.Caps&sut.CapFP == 0 {
		return false
	}
	if fam == template.FamilyTrap && c.info.Caps&sut.CapTrap == 0 {
		return false
	}
	return true
}

// resolveColumns builds the run's column list (built-in SUTs first, then
// externals, preserving declaration order so reports are stable).
func (r *Runner) resolveColumns() error {
	cols := make([]column, 0, len(r.SUTs)+len(r.External))
	for _, v := range r.SUTs {
		cols = append(cols, column{name: v.Name, variant: v})
	}
	for i := range r.External {
		spec := &r.External[i]
		if spec.Name == "" {
			return fmt.Errorf("compliance: external SUT #%d has no name", i)
		}
		if len(spec.Argv) == 0 {
			return fmt.Errorf("compliance: external SUT %q has no command", spec.Name)
		}
		cols = append(cols, column{name: spec.Name, spec: spec})
	}
	seen := make(map[string]bool, len(cols))
	for i := range cols {
		if seen[cols[i].name] {
			return fmt.Errorf("compliance: duplicate SUT column %q", cols[i].name)
		}
		seen[cols[i].name] = true
	}
	r.cols = cols
	return nil
}

// probeExternals performs the capability preflight: one short-lived
// handshake per external SUT, recording its capability bits. A failed
// probe is observable but not fatal — the column stays optimistic and
// the campaign degrades per-case instead.
func (r *Runner) probeExternals() {
	for j := range r.cols {
		col := &r.cols[j]
		if col.spec == nil {
			continue
		}
		info, f := sut.Probe(*col.spec)
		if f != nil {
			r.tel.event(obs.Event{Type: "sut_probe_failed", Sim: col.name, Worker: -1, Detail: f.Reason})
			continue
		}
		col.info = info
		col.probed = true
	}
}

// newColInstances builds the per-worker harnessed instances for a column.
func (r *Runner) newColInstances(col *column, p template.Platform, workers int) ([]*instance, error) {
	if col.variant != nil {
		return r.newInstances(col.variant, p, workers)
	}
	return r.newExternalInstances(col, p, workers)
}

// newExternalInstances builds one adapter-backed instance per worker.
// Unlike built-ins there is no factory: the Adapter itself rebuilds its
// process on failure, so the instance's resilience surface is the
// breaker plus the adapter's own restart loop.
func (r *Runner) newExternalInstances(col *column, p template.Platform, workers int) ([]*instance, error) {
	quar := resilience.NewQuarantine(r.QuarantineDir)
	cfgStr := p.Cfg.String()
	out := make([]*instance, workers)
	for w := range out {
		spec := *col.spec
		// Distinct per-worker jitter streams, deterministic per campaign.
		spec.Seed += int64(w)
		a := sut.NewAdapter(spec)
		in := &instance{
			name:    col.name,
			adapter: a,
			family:  byte(p.Family),
			config:  cfgStr,
			breaker: resilience.Breaker{Threshold: r.breakerThreshold(), HalfOpenAfter: r.halfOpenAfter()},
			quar:    quar,
		}
		if tel := r.tel; tel != nil {
			w, name := w, col.name
			a.OnRestart = func() {
				tel.sutRestarted(name)
				tel.event(obs.Event{Type: "sut_restart", Sim: name, Worker: w, Config: cfgStr})
			}
			a.OnRetry = func() {
				tel.sutRetried(name)
				tel.event(obs.Event{Type: "sut_retry", Sim: name, Worker: w, Config: cfgStr})
			}
			in.events = func(ev obs.Event) {
				ev.Sim, ev.Worker, ev.Config = name, w, cfgStr
				tel.event(ev)
			}
			in.tel = tel
			in.breaker.OnTransition = func(from, to resilience.BreakerState) {
				switch {
				case from == resilience.BreakerClosed && to == resilience.BreakerOpen:
					tel.breakerOpened(name)
					tel.event(obs.Event{Type: "breaker_open", Sim: name, Worker: w, Config: cfgStr})
				case to == resilience.BreakerHalfOpen:
					tel.event(obs.Event{Type: "breaker_half_open", Sim: name, Worker: w, Config: cfgStr})
				case to == resilience.BreakerClosed && from == resilience.BreakerHalfOpen:
					tel.breakerClosed(name)
					tel.event(obs.Event{Type: "breaker_close", Sim: name, Worker: w, Config: cfgStr})
				case from == resilience.BreakerHalfOpen && to == resilience.BreakerOpen:
					tel.breakerOpened(name)
					tel.event(obs.Event{Type: "breaker_open", Sim: name, Worker: w, Config: cfgStr, Detail: "probe failed"})
				}
			}
		}
		out[w] = in
	}
	return out, nil
}

// closeInstances shuts down a column's instances (kills external adapter
// processes; a no-op for in-process simulators).
func closeInstances(ins []*instance) {
	for _, in := range ins {
		if in != nil {
			in.close()
		}
	}
}
