package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestNilSafety: every operation on nil telemetry objects must be a
// no-op — the safe-when-disabled contract.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	c.Add(5)
	if c.Value() != 0 {
		t.Fatal("nil counter must read zero")
	}
	g := r.Gauge("x")
	g.Set(3)
	g.Add(1)
	if g.Value() != 0 {
		t.Fatal("nil gauge must read zero")
	}
	h := r.Stage(StageFilter)
	h.Observe(time.Second)
	h.ObserveN(time.Second, SampleEvery)
	if _, d := r.Lap(StageExecute, time.Now().Add(-time.Millisecond)); d < time.Millisecond/2 {
		t.Fatalf("nil registry Lap returned %v, want the lap's duration", d)
	}
	if h.Count() != 0 || h.SumNS() != 0 || h.Bucket(0) != 0 {
		t.Fatal("nil histogram must read zero")
	}
	if err := r.WritePrometheus(io.Discard); err != nil {
		t.Fatal(err)
	}
	if s := r.StageSummaries(); s != nil {
		t.Fatalf("nil registry stage summaries = %v, want nil", s)
	}
	var l *EventLog
	l.Emit(Event{Type: "x"})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestBucketBoundaries pins the histogram bucket table: exact-boundary
// observations land in the bounded bucket (le is inclusive), one past
// lands in the next, and everything above the last bound lands in +Inf.
func TestBucketBoundaries(t *testing.T) {
	if got, want := NumBuckets, len(BucketBounds)+1; got != want {
		t.Fatalf("NumBuckets = %d, want %d", got, want)
	}
	for i, b := range BucketBounds {
		var h Histogram
		h.Observe(time.Duration(b))
		if h.Bucket(i) != 1 {
			t.Errorf("observe %dns: bucket %d = %d, want 1", b, i, h.Bucket(i))
		}
		h2 := &Histogram{}
		h2.Observe(time.Duration(b + 1))
		next := i + 1
		if h2.Bucket(next) != 1 {
			t.Errorf("observe %dns: bucket %d = %d, want 1", b+1, next, h2.Bucket(next))
		}
	}
	// Spot-check the ladder shape the exposition format depends on.
	pins := map[time.Duration]int{
		0:                    0, // clamps into the first bucket
		50 * time.Nanosecond: 0,
		time.Microsecond:     3,
		2 * time.Microsecond: 4,
		time.Millisecond:     12,
		time.Second:          21,
		10 * time.Second:     24,
		time.Minute:          25, // +Inf
		-time.Second:         0,  // negative durations clamp to zero
	}
	for d, want := range pins {
		var h Histogram
		h.Observe(d)
		if h.Bucket(want) != 1 {
			got := -1
			for i := 0; i < NumBuckets; i++ {
				if h.Bucket(i) == 1 {
					got = i
				}
			}
			t.Errorf("observe %v: landed in bucket %d, want %d", d, got, want)
		}
	}
	var h Histogram
	h.Observe(3 * time.Millisecond)
	h.Observe(-time.Second)
	if h.Count() != 2 {
		t.Fatalf("count = %d, want 2", h.Count())
	}
	if h.SumNS() != uint64(3*time.Millisecond) {
		t.Fatalf("sum = %d, want %d (negative clamps to 0)", h.SumNS(), 3*time.Millisecond)
	}
	// A sampled observation stands for SampleEvery operations.
	h.ObserveN(2*time.Microsecond, SampleEvery)
	if h.Count() != 2+SampleEvery || h.Bucket(4) != SampleEvery ||
		h.SumNS() != uint64(3*time.Millisecond+SampleEvery*2*time.Microsecond) {
		t.Fatalf("ObserveN: count %d, bucket %d, sum %d", h.Count(), h.Bucket(4), h.SumNS())
	}
}

func TestStageNamesRoundTrip(t *testing.T) {
	for s := Stage(0); s < NumStages; s++ {
		got, ok := StageByName(s.String())
		if !ok || got != s {
			t.Errorf("StageByName(%q) = %v, %t", s.String(), got, ok)
		}
	}
	if _, ok := StageByName("nope"); ok {
		t.Error("StageByName accepted an unknown name")
	}
}

// TestWritePrometheus pins the text exposition format: one TYPE line per
// family (the stage family with two active stages included), sorted
// series, label pass-through, cumulative le buckets in seconds.
func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("rv_execs_total").Add(42)
	r.Counter(`rv_mismatches_total{sim="Spike"}`).Add(7)
	r.Counter(`rv_mismatches_total{sim="GRIFT"}`).Add(9)
	r.Gauge("rv_corpus_size").Set(13)
	r.Stage(StageFilter).Observe(150 * time.Nanosecond) // bucket le=2.5e-07
	r.Stage(StageFilter).Observe(2 * time.Second)       // bucket le=2.5
	r.Stage(StageExecute).Observe(time.Microsecond)

	var b bytes.Buffer
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE rv_execs_total counter\nrv_execs_total 42\n",
		"# TYPE rv_mismatches_total counter\nrv_mismatches_total{sim=\"GRIFT\"} 9\nrv_mismatches_total{sim=\"Spike\"} 7\n",
		"# TYPE rv_corpus_size gauge\nrv_corpus_size 13\n",
		"# TYPE rvnegtest_stage_duration_seconds histogram\n",
		`rvnegtest_stage_duration_seconds_bucket{stage="filter",le="1e-07"} 0`,
		`rvnegtest_stage_duration_seconds_bucket{stage="filter",le="2.5e-07"} 1`,
		`rvnegtest_stage_duration_seconds_bucket{stage="filter",le="2.5"} 2`,
		`rvnegtest_stage_duration_seconds_bucket{stage="filter",le="+Inf"} 2`,
		`rvnegtest_stage_duration_seconds_sum{stage="filter"} 2.00000015`,
		`rvnegtest_stage_duration_seconds_count{stage="filter"} 2`,
		`rvnegtest_stage_duration_seconds_count{stage="execute"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in exposition:\n%s", want, out)
		}
	}
	if strings.Contains(out, `stage="mutate"`) {
		t.Error("empty stage histograms must be omitted")
	}
	// The text format allows one TYPE line per metric family.
	types := map[string]int{}
	for _, line := range strings.Split(out, "\n") {
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			types[strings.Fields(f)[0]]++
		}
	}
	for _, fam := range []string{"rv_execs_total", "rv_mismatches_total", "rv_corpus_size", "rvnegtest_stage_duration_seconds"} {
		if types[fam] != 1 {
			t.Errorf("family %s has %d TYPE lines, want 1:\n%s", fam, types[fam], out)
		}
	}
	if len(types) != 4 {
		t.Errorf("TYPE lines for %d families, want 4: %v", len(types), types)
	}
}

// TestEventLogSerialized hammers one EventLog from many goroutines and
// asserts the NDJSON stream is well-formed with strictly monotonic
// sequence numbers and non-decreasing timestamps — the serialized,
// monotonic emission contract.
func TestEventLogSerialized(t *testing.T) {
	var buf bytes.Buffer
	var mu sync.Mutex // bytes.Buffer isn't concurrency-safe on its own
	l := NewEventLog(writerFunc(func(p []byte) (int, error) {
		mu.Lock()
		defer mu.Unlock()
		return buf.Write(p)
	}))
	const goroutines, each = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				l.Emit(Event{Type: "corpus_add", Worker: g, Execs: uint64(i)})
			}
		}(g)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != goroutines*each {
		t.Fatalf("got %d events, want %d", len(evs), goroutines*each)
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d (stream must be seq-ordered)", i, ev.Seq, i+1)
		}
		if i > 0 && ev.TNS < evs[i-1].TNS {
			t.Fatalf("event %d timestamp %d precedes event %d timestamp %d", i, ev.TNS, i-1, evs[i-1].TNS)
		}
	}
}

type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestServerEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("rv_execs_total").Add(5)
	r.Stage(StageExecute).Observe(time.Millisecond)
	s, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for _, want := range []string{"rv_execs_total 5", `stage="execute"`} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
	vars := get("/debug/vars")
	for _, want := range []string{`"rv_execs_total": 5`, `"memstats"`, `"execute"`} {
		if !strings.Contains(vars, want) {
			t.Errorf("/debug/vars missing %q:\n%s", want, vars)
		}
	}
	if pp := get("/debug/pprof/cmdline"); pp == "" {
		t.Error("/debug/pprof/cmdline returned nothing")
	}
	// Scrapes see live updates.
	r.Counter("rv_execs_total").Add(1)
	if !strings.Contains(get("/metrics"), "rv_execs_total 6") {
		t.Error("scrape did not observe a live counter update")
	}
}

func TestEventLogFile(t *testing.T) {
	path := t.TempDir() + "/events.ndjson"
	l, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit(Event{Type: "campaign_start", Worker: -1})
	l.Emit(Event{Type: "campaign_done", Worker: -1, Detail: fmt.Sprint(123)})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(f))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 2 || evs[0].Type != "campaign_start" || evs[1].Detail != "123" {
		t.Fatalf("round-trip mismatch: %+v", evs)
	}
}

// TestAppendEventLogHealsTornTail simulates a kill -9 tearing the final
// line mid-write: reopening in append mode must terminate the fragment
// so later events don't splice onto it, and ReadEvents must skip the
// fragment while keeping every intact line on both sides of it.
func TestAppendEventLogHealsTornTail(t *testing.T) {
	path := t.TempDir() + "/events.ndjson"
	l, err := CreateEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Emit(Event{Type: "campaign_start", Worker: -1})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"seq":2,"t_ns":12,"ty`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, err := AppendEventLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Emit(Event{Type: "campaign_done", Worker: -1})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	evs, err := ReadEvents(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadEvents on a healed stream: %v\n%s", err, raw)
	}
	if len(evs) != 2 || evs[0].Type != "campaign_start" || evs[1].Type != "campaign_done" {
		t.Fatalf("healed stream events = %+v", evs)
	}
	if _, err := ReadEvents(strings.NewReader("not json\nstill not\n")); err == nil {
		t.Fatal("all-garbage stream must error, not report zero events")
	}
}
