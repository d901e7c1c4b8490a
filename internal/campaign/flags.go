package campaign

import (
	"flag"
	"fmt"
	"os"

	"rvnegtest/internal/obs"
)

// Flags is the shared campaign flag surface of rvfuzz and rvcompliance:
// checkpoint/resume, quarantine, case timeout, workers, telemetry
// address and events file. Registering them through one helper keeps
// the two CLIs from drifting apart again — the flag names, defaults and
// help text live here once.
type Flags struct {
	Checkpoint    string
	Resume        string
	Quarantine    string
	CaseTimeout   float64
	Workers       int
	TelemetryAddr string
	Events        string
}

// Register installs the shared campaign flags on fs. The worker default
// and help text differ per CLI (rvfuzz: independent fuzzers shaping the
// corpus; rvcompliance: engine shards that never change the report), so
// they are parameters.
func (f *Flags) Register(fs *flag.FlagSet, workersDefault int, workersUsage string) {
	fs.StringVar(&f.Checkpoint, "checkpoint", "", "checkpoint campaign state under this directory (enables resume)")
	fs.StringVar(&f.Resume, "resume", "", "resume a checkpointed campaign from this directory")
	fs.StringVar(&f.Quarantine, "quarantine", "", "save inputs that trigger harness faults into this directory")
	fs.Float64Var(&f.CaseTimeout, "case-timeout", 0, "per-case wall-clock watchdog in seconds (0 disables)")
	fs.IntVar(&f.Workers, "workers", workersDefault, workersUsage)
	fs.StringVar(&f.TelemetryAddr, "telemetry-addr", "", "serve live telemetry on this address: Prometheus-text /metrics, /debug/vars, net/http/pprof")
	fs.StringVar(&f.Events, "events", "", "write campaign lifecycle events as NDJSON to this file (render with rvreport -events)")
}

// CheckpointDir reconciles -checkpoint and -resume into the effective
// checkpoint directory, validating that a resume names an existing
// checkpoint via hasCheckpoint.
func (f *Flags) CheckpointDir(hasCheckpoint func(dir string) bool) (string, error) {
	dir := f.Checkpoint
	if f.Resume != "" {
		if dir != "" && dir != f.Resume {
			return "", fmt.Errorf("-checkpoint and -resume name different directories")
		}
		dir = f.Resume
		if !hasCheckpoint(dir) {
			return "", fmt.Errorf("no checkpoint found under %s", dir)
		}
	}
	return dir, nil
}

// Telemetry is the CLI-side telemetry bundle opened from the shared
// flags: the optional live-metrics server and NDJSON event stream.
type Telemetry struct {
	// Registry is non-nil when a telemetry address was given; the
	// server exposes it.
	Registry *obs.Registry
	// Events is non-nil when an events file was given.
	Events *obs.EventLog

	prog    string
	srv     *obs.Server
	closers []func()
}

// OpenTelemetry wires -telemetry-addr and -events. prog names the CLI
// for the stderr notice and error prefixes. Close flushes the event file
// and shuts the server down; it is safe to call more than once (needed
// because os.Exit paths skip deferred calls).
func (f *Flags) OpenTelemetry(prog string) (*Telemetry, error) {
	t := &Telemetry{prog: prog}
	if f.TelemetryAddr != "" {
		t.Registry = obs.NewRegistry()
		srv, err := obs.Serve(f.TelemetryAddr, t.Registry)
		if err != nil {
			return nil, fmt.Errorf("telemetry server: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: telemetry at http://%s/metrics (also /debug/vars, /debug/pprof/)\n", prog, srv.Addr)
		t.srv = srv
		t.closers = append(t.closers, func() { srv.Close() })
	}
	if f.Events != "" {
		events, err := obs.CreateEventLog(f.Events)
		if err != nil {
			return nil, fmt.Errorf("events file: %w", err)
		}
		t.Events = events
		t.closers = append(t.closers, func() {
			if err := events.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "%s: closing events file: %v\n", prog, err)
			}
		})
	}
	return t, nil
}

// Close flushes and shuts down whatever OpenTelemetry opened.
// Idempotent.
func (t *Telemetry) Close() {
	if t == nil {
		return
	}
	for _, c := range t.closers {
		c()
	}
	t.closers = nil
}

// Env assembles the execution environment from the shared flags plus the
// resolved checkpoint directory and opened telemetry.
func (f *Flags) Env(checkpointDir string, t *Telemetry) Env {
	return Env{
		CheckpointDir: checkpointDir,
		QuarantineDir: f.Quarantine,
		Obs:           t.Registry,
		Events:        t.Events,
	}
}

// Apply copies the shared flag values onto a job spec (the CLI-specific
// flags are applied by each main).
func (f *Flags) Apply(spec *JobSpec) {
	spec.Workers = f.Workers
	spec.CaseTimeoutSec = f.CaseTimeout
}
