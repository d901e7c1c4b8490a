// Command rvnegtestd runs negative-testing campaigns as a service: an
// HTTP daemon with a persistent job queue. Jobs are the same JobSpec the
// CLIs execute — submitting a spec to the daemon produces byte-identical
// artifacts to running rvfuzz/rvcompliance directly, and queued or
// running jobs survive daemon restarts (including kill -9) by resuming
// from their engine checkpoints.
//
// Usage:
//
//	rvnegtestd -data /var/lib/rvnegtestd [-addr 127.0.0.1:9640] [-slots 2]
//	           [-events events.ndjson] [-addr-file path]
//
// See DESIGN.md §18 and the README's "Running as a service" section for
// the API walkthrough.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rvnegtest/internal/campaign"
	"rvnegtest/internal/obs"
)

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rvnegtestd: "+format+"\n", args...)
	os.Exit(1)
}

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9640", "listen address for the HTTP API (use port 0 with -addr-file for an ephemeral port)")
		data     = flag.String("data", "", "job store directory: specs, checkpoints, quarantine and artifacts persist here (required)")
		slots    = flag.Int("slots", 1, "jobs running concurrently (each job may use multiple engine workers)")
		events   = flag.String("events", "", "append daemon and job lifecycle events as NDJSON to this file (render with rvreport -events)")
		addrFile = flag.String("addr-file", "", "write the bound listen address to this file (for scripts using port 0)")
	)
	flag.Parse()
	if flag.NArg() != 0 {
		fatalf("unexpected arguments: %v", flag.Args())
	}
	if *data == "" {
		fatalf("-data is required: the job store directory is what makes jobs survive restarts")
	}

	store, err := campaign.OpenStore(*data)
	if err != nil {
		fatalf("opening job store: %v", err)
	}

	reg := obs.NewRegistry()
	var eventLog *obs.EventLog
	if *events != "" {
		// Append, not truncate: one event stream accumulates across
		// daemon restarts, so a resumed job's history stays in one file.
		eventLog, err = obs.AppendEventLog(*events)
		if err != nil {
			fatalf("events file: %v", err)
		}
	}

	sched, err := campaign.Open(store, campaign.SchedulerConfig{
		Slots:  *slots,
		Obs:    reg,
		Events: eventLog,
	})
	if err != nil {
		fatalf("recovering job store: %v", err)
	}

	mux := http.NewServeMux()
	mux.Handle("/api/v1/", campaign.NewAPI(sched))
	telemetry := obs.Handler(reg)
	mux.Handle("/metrics", telemetry)
	mux.Handle("/debug/", telemetry)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen: %v", err)
	}
	bound := ln.Addr().String()
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fatalf("writing -addr-file: %v", err)
		}
	}

	sched.Start()
	srv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "rvnegtestd: listening on http://%s (store %s, %d slot(s))\n", bound, *data, *slots)

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "rvnegtestd: %v: draining (running jobs checkpoint and resume on next start)\n", sig)
	case err := <-serveErr:
		fatalf("serving: %v", err)
	}

	// Close the scheduler first: running jobs suspend, and a pending
	// /wait returns its 503 at once instead of holding the server's
	// shutdown until the timeout.
	sched.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	srv.Shutdown(ctx)
	if eventLog != nil {
		if err := eventLog.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "rvnegtestd: closing events file: %v\n", err)
		}
	}
}
