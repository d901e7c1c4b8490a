package main

import (
	"context"
	"io"
	"os"
	"path/filepath"
	"strconv"
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

// retiredStageLog is an rvfuzz -events log written while the fuzzer
// still timed a "predecode" stage, which no longer exists.
const retiredStageLog = `{"seq":1,"t_ns":221387,"type":"campaign_start","worker":-1,"detail":"workers=1 execs_each=3000"}
{"seq":2,"t_ns":29350080,"type":"stage_summary","worker":0,"execs":3000,"corpus":779,"stages":{"coverage-eval":{"count":2418,"total_ns":3079388},"execute":{"count":2418,"total_ns":12263974},"filter":{"count":3000,"total_ns":3005749},"mutate":{"count":3000,"total_ns":3049054},"predecode":{"count":2418,"total_ns":565594}}}
{"seq":3,"t_ns":29450276,"type":"campaign_done","worker":-1,"corpus":779}
`

// TestEventsRetiredStage: a stage the report does not know still gets
// its row, after the canonical stages, so the shares sum to 100%.
func TestEventsRetiredStage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	if err := os.WriteFile(path, []byte(retiredStageLog), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { renderEvents(path, "") })
	var stages []string
	sum := 0.0
	for _, line := range strings.Split(out, "\n") {
		cells := strings.Split(line, "|")
		if len(cells) != 7 || !strings.HasSuffix(cells[5], "% ") {
			continue
		}
		share, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(cells[5], "% ")), 64)
		if err != nil {
			t.Fatal(err)
		}
		stages = append(stages, strings.TrimSpace(cells[1]))
		sum += share
	}
	want := []string{"filter", "mutate", "execute", "coverage-eval", "predecode"}
	if strings.Join(stages, ",") != strings.Join(want, ",") {
		t.Errorf("stage rows %v, want %v:\n%s", stages, want, out)
	}
	if sum < 99.8 || sum > 100.2 {
		t.Errorf("shares sum to %.1f%%, want 100%%:\n%s", sum, out)
	}
}
