package main

import (
	"fmt"
	"os"
	"sort"
	"time"

	"rvnegtest/internal/obs"
)

// renderEvents implements `rvreport -events FILE [-job ID]`: it reads a
// telemetry event stream written by `rvfuzz -events`, `rvcompliance
// -events` or `rvnegtestd -events` and renders a markdown report — the
// per-stage time breakdown (the sum of every stage_summary), the
// event-type counts, and the per-simulator cell timings and health when
// the stream came from a compliance run.
//
// A daemon stream interleaves events from many jobs (each stamped with a
// job ID); folding them into one aggregate would blend unrelated
// campaigns into bogus totals, so such streams render one section per
// job. -job restricts the report to a single job's events.
func renderEvents(path, jobFilter string) {
	f, err := os.Open(path)
	check(err)
	defer f.Close()
	evs, err := obs.ReadEvents(f)
	check(err)
	if jobFilter != "" {
		filtered := evs[:0]
		for _, ev := range evs {
			if ev.Job == jobFilter {
				filtered = append(filtered, ev)
			}
		}
		evs = filtered
		if len(evs) == 0 {
			fmt.Printf("no events for job %s in %s\n", jobFilter, path)
			return
		}
	}
	if len(evs) == 0 {
		fmt.Println("no events in", path)
		return
	}

	// Group by job ID, preserving first-appearance order. CLI streams
	// carry no job IDs and collapse into one unlabeled group, rendering
	// exactly as they always have.
	var order []string
	groups := map[string][]obs.Event{}
	for _, ev := range evs {
		if _, ok := groups[ev.Job]; !ok {
			order = append(order, ev.Job)
		}
		groups[ev.Job] = append(groups[ev.Job], ev)
	}

	span := time.Duration(evs[len(evs)-1].TNS)
	fmt.Printf("# Telemetry event report: %s\n\n", path)
	fmt.Printf("%d events spanning %v.\n\n", len(evs), span.Round(time.Millisecond))

	if len(order) == 1 && order[0] == "" {
		renderStream(groups[""], "##")
		return
	}
	for _, job := range order {
		name := job
		if name == "" {
			name = "(unattributed)"
		}
		group := groups[job]
		fmt.Printf("## Job %s — %d events%s\n\n", name, len(group), lifecycleNote(group))
		renderStream(group, "###")
	}
}

// lifecycleNote summarizes a job group's scheduler lifecycle events for
// the section heading ("submitted, started, done"), empty when the group
// has none.
func lifecycleNote(evs []obs.Event) string {
	var phases []string
	for _, ev := range evs {
		switch ev.Type {
		case "job_submitted", "job_start", "job_resume", "job_suspend",
			"job_done", "job_failed", "job_canceled":
			phases = append(phases, ev.Type[len("job_"):])
		}
	}
	if len(phases) == 0 {
		return ""
	}
	out := " ("
	for i, p := range phases {
		if i > 0 {
			out += ", "
		}
		out += p
	}
	return out + ")"
}

// renderStream renders one event stream's analysis sections at heading
// level h ("##" for a whole-file stream, "###" under a per-job heading).
func renderStream(evs []obs.Event, h string) {
	counts := map[string]int{}
	// Each stage_summary covers its worker's stages since the worker's
	// previous one, so summing them all gives the campaign-wide
	// breakdown, also over the sessions of a resumed job.
	var summaries []map[string]obs.StageSummary
	workers := map[int]bool{}
	simTime := map[string]int64{} // cell_done DurNS per simulator
	health := map[string]*sutHealth{}
	crashes := 0
	sickbay := func(sim string) *sutHealth {
		h := health[sim]
		if h == nil {
			h = &sutHealth{}
			health[sim] = h
		}
		return h
	}
	for _, ev := range evs {
		counts[ev.Type]++
		switch ev.Type {
		case "stage_summary":
			summaries = append(summaries, ev.Stages)
			workers[ev.Worker] = true
		case "cell_done":
			simTime[ev.Sim] += ev.DurNS
		case "crash", "quarantine":
			crashes++
		case "sut_restart":
			sickbay(ev.Sim).restarts++
		case "sut_retry":
			sickbay(ev.Sim).retries++
		case "adapter_fault":
			sickbay(ev.Sim).faults++
		case "sut_probe_failed":
			sickbay(ev.Sim).probeFails++
		case "breaker_open":
			sickbay(ev.Sim).opens++
		case "breaker_half_open":
			sickbay(ev.Sim).halfOpens++
		case "breaker_close":
			sickbay(ev.Sim).closes++
		}
	}

	fmt.Printf("%s Event counts\n", h)
	fmt.Println()
	fmt.Println("| event | count |")
	fmt.Println("|---|---|")
	types := make([]string, 0, len(counts))
	for t := range counts {
		types = append(types, t)
	}
	sort.Strings(types)
	for _, t := range types {
		fmt.Printf("| %s | %d |\n", t, counts[t])
	}
	fmt.Println()

	if len(summaries) > 0 {
		// Fold the summaries into campaign-wide stage totals. The maps
		// are flattened into a pair slice first (the collect is
		// order-insensitive, the fold over it is a commutative sum),
		// and the table below renders in canonical stage order — so
		// stage map iteration order cannot leak into the report.
		type stagePair struct {
			stage string
			s     obs.StageSummary
		}
		var pairs []stagePair
		for _, ss := range summaries {
			for stage, s := range ss {
				pairs = append(pairs, stagePair{stage, s})
			}
		}
		total := map[string]obs.StageSummary{}
		for _, p := range pairs {
			t := total[p.stage]
			t.Count += p.s.Count
			t.TotalNS += p.s.TotalNS
			total[p.stage] = t
		}
		var grand uint64
		for _, s := range total {
			grand += s.TotalNS
		}
		fmt.Printf("%s Stage-time breakdown (%d worker(s))\n", h, len(workers))
		fmt.Println()
		fmt.Println("| stage | count | total | mean | share |")
		fmt.Println("|---|---|---|---|---|")
		// Canonical stage order, not map order. Stages this build does
		// not know (a log written before a stage was retired) follow,
		// sorted by name, so the printed shares still sum to 100%.
		var names, seen []string
		for st := obs.Stage(0); st < obs.NumStages; st++ {
			names = append(names, st.String())
		}
		for st := range total {
			seen = append(seen, st)
		}
		sort.Strings(seen)
		for _, st := range seen {
			if _, ok := obs.StageByName(st); !ok {
				names = append(names, st)
			}
		}
		for _, st := range names {
			s, ok := total[st]
			if !ok || s.Count == 0 {
				continue
			}
			mean := time.Duration(s.TotalNS / s.Count)
			share := 0.0
			if grand > 0 {
				share = 100 * float64(s.TotalNS) / float64(grand)
			}
			fmt.Printf("| %s | %d | %v | %v | %.1f%% |\n",
				st, s.Count, time.Duration(s.TotalNS).Round(time.Millisecond), mean, share)
		}
		fmt.Println()
	}

	if len(simTime) > 0 {
		fmt.Printf("%s Per-simulator cell time (compliance cell_done events)\n", h)
		fmt.Println()
		fmt.Println("| simulator | total |")
		fmt.Println("|---|---|")
		sims := make([]string, 0, len(simTime))
		for s := range simTime {
			sims = append(sims, s)
		}
		sort.Strings(sims)
		for _, s := range sims {
			fmt.Printf("| %s | %v |\n", s, time.Duration(simTime[s]).Round(time.Millisecond))
		}
		fmt.Println()
	}

	if len(health) > 0 {
		fmt.Printf("%s SUT health (supervision events)\n", h)
		fmt.Println()
		fmt.Println("| simulator | restarts | retries | adapter faults | breaker opened | half-open probes | recovered | probe failures |")
		fmt.Println("|---|---|---|---|---|---|---|---|")
		sims := make([]string, 0, len(health))
		for s := range health {
			sims = append(sims, s)
		}
		sort.Strings(sims)
		for _, s := range sims {
			h := health[s]
			fmt.Printf("| %s | %d | %d | %d | %d | %d | %d | %d |\n",
				s, h.restarts, h.retries, h.faults, h.opens, h.halfOpens, h.closes, h.probeFails)
		}
		fmt.Println()
	}

	if crashes > 0 {
		fmt.Printf("%d crash/quarantine event(s); grep the NDJSON for `\"type\":\"crash\"` details.\n", crashes)
	}
}

// sutHealth aggregates one simulator's supervision events: the breaker
// lifecycle applies to every SUT column, the restart/retry/fault rows to
// external adapter columns.
type sutHealth struct {
	restarts   int // sut_restart: adapter process respawns
	retries    int // sut_retry: re-attempted runs after an adapter fault
	faults     int // adapter_fault: exchanges that exhausted the retry budget
	probeFails int // sut_probe_failed: capability preflight failures
	opens      int // breaker_open: tripped (incl. failed recovery probes)
	halfOpens  int // breaker_half_open: cool-down expired, probe admitted
	closes     int // breaker_close: successful half-open recovery
}
