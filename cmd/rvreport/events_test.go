package main

import (
	"context"
	"fmt"
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

// resumedJobLog is an rvnegtestd -events log of one 2-worker fuzz job
// that a scheduler shutdown suspended and a restarted daemon resumed to
// done: the stream was appended to, so its sequence numbers restart, and
// each worker wrote one stage_summary per session. The corpus_add and
// checkpoint events are left out.
const resumedJobLog = `{"seq":1,"t_ns":1519990,"type":"job_submitted","job":"job-000001","worker":-1,"detail":"kind=fuzz workers=2"}
{"seq":2,"t_ns":2422216,"type":"job_start","job":"job-000001","worker":-1}
{"seq":3,"t_ns":2514877,"type":"campaign_start","job":"job-000001","worker":-1,"detail":"workers=2 execs_each=600000"}
{"seq":4,"t_ns":1535013508,"type":"stage_summary","job":"job-000001","worker":1,"execs":242250,"corpus":15132,"stages":{"checkpoint-write":{"count":3,"total_ns":68025522},"coverage-eval":{"count":185088,"total_ns":341455616},"execute":{"count":185088,"total_ns":727304704},"filter":{"count":242176,"total_ns":204496384},"mutate":{"count":242176,"total_ns":269886976}}}
{"seq":5,"t_ns":1541722435,"type":"stage_summary","job":"job-000001","worker":0,"execs":243548,"corpus":15325,"stages":{"checkpoint-write":{"count":3,"total_ns":70569110},"coverage-eval":{"count":187904,"total_ns":219325696},"execute":{"count":187904,"total_ns":736912896},"filter":{"count":243456,"total_ns":184427776},"mutate":{"count":243456,"total_ns":245895680}}}
{"seq":6,"t_ns":1542290461,"type":"campaign_done","job":"job-000001","worker":-1,"corpus":30457,"detail":"interrupted"}
{"seq":7,"t_ns":1543122478,"type":"job_checkpointing","job":"job-000001","worker":-1}
{"seq":8,"t_ns":1543576742,"type":"job_suspend","job":"job-000001","worker":-1,"detail":"scheduler shutdown; will resume"}
{"seq":1,"t_ns":571952,"type":"job_start","job":"job-000001","worker":-1}
{"seq":2,"t_ns":671742,"type":"campaign_start","job":"job-000001","worker":-1,"detail":"workers=2 execs_each=600000"}
{"seq":3,"t_ns":1912284628,"type":"stage_summary","job":"job-000001","worker":1,"execs":600000,"corpus":15795,"stages":{"checkpoint-write":{"count":4,"total_ns":113568179},"coverage-eval":{"count":274432,"total_ns":214859776},"execute":{"count":274432,"total_ns":891488512},"filter":{"count":357632,"total_ns":259098112},"mutate":{"count":357632,"total_ns":320656640}}}
{"seq":4,"t_ns":1987744718,"type":"stage_summary","job":"job-000001","worker":0,"execs":600000,"corpus":16037,"stages":{"checkpoint-write":{"count":4,"total_ns":97713946},"coverage-eval":{"count":275968,"total_ns":245946880},"execute":{"count":275968,"total_ns":981708032},"filter":{"count":356352,"total_ns":255633152},"mutate":{"count":356352,"total_ns":348941824}}}
{"seq":5,"t_ns":2121043704,"type":"campaign_done","job":"job-000001","worker":-1,"corpus":16641}
{"seq":6,"t_ns":2122076753,"type":"job_checkpointing","job":"job-000001","worker":-1}
{"seq":7,"t_ns":2155041487,"type":"job_done","job":"job-000001","worker":-1}
`

// TestEventsResumedJobSumsSessions: each stage_summary covers only its
// own session, so the report sums every one of them, while the heading
// still counts distinct workers. A worker's mutate count over both
// sessions is 256·⌊600000/256⌋ = 599,808.
func TestEventsResumedJobSumsSessions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "events.ndjson")
	if err := os.WriteFile(path, []byte(resumedJobLog), 0o644); err != nil {
		t.Fatal(err)
	}
	out := captureStdout(t, func() { renderEvents(path, "") })
	for _, want := range []string{
		"### Stage-time breakdown (2 worker(s))",
		fmt.Sprintf("| mutate | %d |", 2*599808),
		fmt.Sprintf("| checkpoint-write | %d |", 3+3+4+4),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report lacks %q:\n%s", want, out)
		}
	}
}
