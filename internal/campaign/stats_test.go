package campaign

import (
	"context"
	"encoding/json"
	"runtime"
	"testing"
	"time"

	"rvnegtest/internal/fuzz"
)

// marshalIndentStats is the reference EncodeFuzzStats is held to: the
// workers' deterministic stats and the case count through
// json.MarshalIndent, and a newline.
func marshalIndentStats(t *testing.T, workerStats []fuzz.Stats, cases int) []byte {
	t.Helper()
	det := make([]fuzz.Stats, len(workerStats))
	for i, s := range workerStats {
		det[i] = s.Deterministic()
	}
	raw, err := json.MarshalIndent(struct {
		Workers []fuzz.Stats `json:"workers"`
		Cases   int          `json:"cases"`
	}{det, cases}, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(raw, '\n')
}

func checkEncodeFuzzStats(t *testing.T, name string, workerStats []fuzz.Stats, cases int) []byte {
	t.Helper()
	got, err := EncodeFuzzStats(workerStats, cases)
	if err != nil {
		t.Fatal(err)
	}
	if want := marshalIndentStats(t, workerStats, cases); string(got) != string(want) {
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s: %d bytes differ from MarshalIndent's %d at byte %d:\n%s", name, len(got), len(want), n, got[max(0, n-80):min(len(got), n+80)])
	}
	return got
}

// TestEncodeFuzzStatsMatchesMarshalIndent: the encoder writes exactly
// MarshalIndent's bytes for campaigns of 0, 1, 2 and 8 workers, and for
// stats with wall-clock fields set, an empty trace and harness faults.
func TestEncodeFuzzStatsMatchesMarshalIndent(t *testing.T) {
	checkEncodeFuzzStats(t, "no workers (nil)", nil, 0)
	checkEncodeFuzzStats(t, "no workers", []fuzz.Stats{}, 7)
	for _, workers := range []int{1, 2, 8} {
		res, err := Execute(context.Background(), fuzzSpec(workers), Env{})
		if err != nil {
			t.Fatal(err)
		}
		stats := res.WorkerStats
		checkEncodeFuzzStats(t, "campaign", stats, len(res.Suite.Cases))

		edited := append([]fuzz.Stats(nil), stats...)
		edited[0].Duration = 3 * time.Second
		edited[0].SessionDuration = time.Second
		edited[0].ExecsPerSec = 1234.5
		edited[0].HarnessFaults = 2
		edited[len(edited)-1].Trace = nil
		checkEncodeFuzzStats(t, "edited", edited, -1)
	}
}

// TestEncodeFuzzStatsAllocs bounds the bytes the encoder allocates on the
// daemon benchmark's fuzz job (2 workers x 50,000 v3 executions, ~18k
// trace points): at most 1.25 times its output. MarshalIndent allocated
// about four times the output there.
func TestEncodeFuzzStatsAllocs(t *testing.T) {
	spec := JobSpec{Kind: KindFuzz, Cov: "v3", Seed: 3, Execs: 50000, Workers: 2}
	res, err := Execute(context.Background(), spec, Env{})
	if err != nil {
		t.Fatal(err)
	}
	out := checkEncodeFuzzStats(t, "daemon job", res.WorkerStats, len(res.Suite.Cases))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := EncodeFuzzStats(res.WorkerStats, len(res.Suite.Cases)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; float64(n) > 1.25*float64(len(out)) {
		t.Errorf("encoding %d bytes allocated %d bytes (%.2fx), want at most 1.25x", len(out), n, float64(n)/float64(len(out)))
	}
}
