package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"rvnegtest/internal/campaign"
	"rvnegtest/internal/obs"
)

// captureStdout returns what fn prints to os.Stdout.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() { os.Stdout = saved }()
	fn()
	w.Close()
	return string(<-done)
}

// TestEventsOnlyCampaignReportsStages: a campaign given -events without
// -telemetry-addr must still time its stages, write them into its
// stage_summary events and have rvreport -events render the breakdown.
func TestEventsOnlyCampaignReportsStages(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	flags := campaign.Flags{Events: path}
	tel, err := flags.OpenTelemetry("rvfuzz")
	if err != nil {
		t.Fatal(err)
	}
	if tel.Registry == nil {
		t.Fatal("-events alone built no registry")
	}
	spec := campaign.JobSpec{Kind: campaign.KindFuzz, Cov: "v3", Seed: 3, Execs: 2000, Workers: 1}
	if _, err := campaign.Execute(context.Background(), spec, flags.Env("", tel)); err != nil {
		t.Fatal(err)
	}
	tel.Close()

	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := obs.ReadEvents(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	summaries := 0
	for _, ev := range evs {
		if ev.Type != "stage_summary" {
			continue
		}
		summaries++
		if ev.Stages["execute"].Count == 0 {
			t.Errorf("stage_summary without execute timings: %+v", ev.Stages)
		}
	}
	if summaries == 0 {
		t.Fatal("no stage_summary event")
	}

	out := captureStdout(t, func() { renderEvents(path, "") })
	for _, want := range []string{"Stage-time breakdown", "| execute |", "| mutate |", "| filter |"} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
