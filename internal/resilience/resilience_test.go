package resilience

import (
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestRNGDeterministicAndRestorable(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same-seed streams diverge at %d", i)
		}
	}

	// Burn part of the stream, snapshot, and check the restored generator
	// continues the identical sequence.
	r := NewRNG(7)
	for i := 0; i < 137; i++ {
		r.Uint64()
	}
	st := r.State()
	var want [64]uint64
	for i := range want {
		want[i] = r.Uint64()
	}
	fresh := NewRNG(0)
	if err := fresh.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got := fresh.Uint64(); got != want[i] {
			t.Fatalf("restored stream diverges at %d: %#x != %#x", i, got, want[i])
		}
	}

	if err := fresh.Restore([4]uint64{}); err == nil {
		t.Fatal("all-zero state accepted")
	}
}

func TestRNGThroughRandRand(t *testing.T) {
	// The fuzzer wraps the source in rand.Rand; verify the wrapper adds
	// no hidden state for the methods the fuzzer draws (so restoring the
	// source restores the stream).
	src := NewRNG(99)
	rr := rand.New(src)
	for i := 0; i < 57; i++ {
		rr.Intn(100)
		rr.Float64()
	}
	st := src.State()
	var want [32]int
	for i := range want {
		want[i] = rr.Intn(1 << 20)
	}
	src2 := NewRNG(0)
	if err := src2.Restore(st); err != nil {
		t.Fatal(err)
	}
	rr2 := rand.New(src2)
	for i := range want {
		if got := rr2.Intn(1 << 20); got != want[i] {
			t.Fatalf("rand.Rand stream diverges at %d", i)
		}
	}
}

func TestSafeCapturesPanic(t *testing.T) {
	rec := Safe(func() { panic("sail decoder crash: illegal encoding") })
	if rec == nil {
		t.Fatal("panic not captured")
	}
	if rec.Msg != "sail decoder crash: illegal encoding" {
		t.Fatalf("message mangled: %q", rec.Msg)
	}
	if !strings.Contains(rec.Stack, "resilience") {
		t.Fatalf("stack missing frames: %q", rec.Stack)
	}
	if rec := Safe(func() {}); rec != nil {
		t.Fatalf("spurious recovery: %+v", rec)
	}
}

func TestGuard(t *testing.T) {
	inc := func(x int) int { return x + 1 }
	boom := func(msg string) int { panic(msg) }
	// Inline path: value through, panic captured.
	v, rec, to := Guard(0, inc, 40)
	if v != 41 || rec != nil || to {
		t.Fatalf("inline: %v %v %v", v, rec, to)
	}
	_, rec, to = Guard(0, boom, "boom")
	if rec == nil || rec.Msg != "boom" || to {
		t.Fatalf("inline panic: %v %v", rec, to)
	}

	// Goroutine path: fast fn completes, wedge is reaped.
	v, rec, to = Guard(time.Second, inc, 6)
	if v != 7 || rec != nil || to {
		t.Fatalf("guarded: %v %v %v", v, rec, to)
	}
	_, rec, to = Guard(time.Second, boom, "guarded boom")
	if rec == nil || rec.Msg != "guarded boom" || to {
		t.Fatalf("guarded panic: %v %v", rec, to)
	}
	release := make(chan struct{})
	defer close(release)
	_, rec, to = Guard(20*time.Millisecond, func(c chan struct{}) int { <-c; return 0 }, release)
	if !to || rec != nil {
		t.Fatalf("wedge not reaped: %v %v", rec, to)
	}
}

// guardedCase is the shape of the engines' guarded calls: a simulator
// instance, a buffer and the value they produce, passed by value.
type guardedCase struct {
	sum *int
	in  []byte
}

func (c guardedCase) run() int {
	*c.sum += len(c.in)
	return *c.sum
}

// TestGuardInlineAllocsZero pins the inline path at 0 allocations: the
// per-case call of both engines when CaseTimeout is 0. The argument
// carries pointers, as the engines' do, so it must stay off the heap.
func TestGuardInlineAllocsZero(t *testing.T) {
	sum, in := new(int), make([]byte, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if _, rec, to := Guard(0, guardedCase.run, guardedCase{sum, in}); rec != nil || to {
			t.Fatalf("inline: %v %v", rec, to)
		}
	})
	if allocs != 0 {
		t.Fatalf("Guard(0, ...) makes %v allocations per call, want 0", allocs)
	}
	if *sum != 8*101 {
		t.Fatalf("fn ran to a sum of %d, want %d", *sum, 8*101)
	}
}

func TestBreaker(t *testing.T) {
	b := &Breaker{Threshold: 3}
	b.RecordFault()
	b.RecordFault()
	b.RecordOK() // streak resets
	b.RecordFault()
	b.RecordFault()
	if b.Tripped() {
		t.Fatal("tripped below threshold")
	}
	b.RecordFault()
	if !b.Tripped() {
		t.Fatal("not tripped at threshold")
	}

	off := &Breaker{}
	for i := 0; i < 100; i++ {
		off.RecordFault()
	}
	if off.Tripped() {
		t.Fatal("disabled breaker tripped")
	}
	off.Trip()
	if !off.Tripped() {
		t.Fatal("explicit Trip ignored")
	}
}

// TestBreakerOpensOnce: the closed → open transition is reported
// exactly once, at the moment the breaker opens, however it opens.
func TestBreakerOpensOnce(t *testing.T) {
	var tr transitions
	b := tr.watch(&Breaker{Threshold: 2})
	b.RecordFault()
	if len(tr) != 0 {
		t.Fatalf("transitions %v below threshold", tr)
	}
	b.RecordFault()
	if tr.opens() != 1 {
		t.Fatalf("%d closed → open transitions at threshold, want 1", tr.opens())
	}
	b.RecordFault()
	b.Trip()
	if len(tr) != 1 {
		t.Fatalf("transitions %v on an already-open breaker, want one closed → open", tr)
	}

	var viaTrip transitions
	tb := viaTrip.watch(&Breaker{})
	tb.Trip()
	tb.Trip()
	if len(viaTrip) != 1 || viaTrip.opens() != 1 {
		t.Fatalf("transitions via Trip %v, want one closed → open", viaTrip)
	}
}

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	if err := WriteFileAtomic(path, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "v2" {
		t.Fatalf("got %q", got)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("temp files left behind: %v", ents)
	}
}

func TestEnvelopeRoundTripAndValidation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	type payload struct {
		Execs uint64   `json:"execs"`
		RNG   []uint64 `json:"rng"`
	}
	in := payload{Execs: 1 << 62, RNG: []uint64{^uint64(0), 1}}
	if err := SaveJSON(path, "rvfuzz-checkpoint", 1, in); err != nil {
		t.Fatal(err)
	}

	var out payload
	ver, err := LoadJSON(path, "rvfuzz-checkpoint", 1, &out)
	if err != nil {
		t.Fatal(err)
	}
	if ver != 1 || out.Execs != in.Execs || out.RNG[0] != in.RNG[0] {
		t.Fatalf("round trip lost data: v%d %+v", ver, out)
	}

	if _, err := LoadJSON(path, "other-format", 1, &out); err == nil {
		t.Fatal("wrong format accepted")
	}
	if err := SaveJSON(path, "rvfuzz-checkpoint", 9, in); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadJSON(path, "rvfuzz-checkpoint", 1, &out); err == nil {
		t.Fatal("newer version accepted")
	}
}

// TestEnvelopeCompactAndIndented: SaveJSON writes one compact line, and
// LoadJSON still reads the indented envelopes earlier builds wrote.
func TestEnvelopeCompactAndIndented(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "job.json")
	if err := SaveJSON(path, "rvnegtestd-job", 1, map[string]any{"id": "job-000001", "resumes": 2}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"format":"rvnegtestd-job","version":1,"payload":{"id":"job-000001","resumes":2}}` + "\n"
	if string(got) != want {
		t.Fatalf("SaveJSON wrote %q, want %q", got, want)
	}

	indented := "{\n  \"format\": \"rvnegtestd-job\",\n  \"version\": 1,\n  \"payload\": {\n    \"id\": \"job-000001\",\n    \"resumes\": 2\n  }\n}\n"
	if err := os.WriteFile(path, []byte(indented), 0o644); err != nil {
		t.Fatal(err)
	}
	var out struct {
		ID      string `json:"id"`
		Resumes int    `json:"resumes"`
	}
	if ver, err := LoadJSON(path, "rvnegtestd-job", 1, &out); err != nil || ver != 1 || out.ID != "job-000001" || out.Resumes != 2 {
		t.Fatalf("indented envelope: version %d, %+v, err %v", ver, out, err)
	}
}

func TestQuarantine(t *testing.T) {
	var nilq *Quarantine
	if err := nilq.Save([]byte{1}, "x"); err != nil {
		t.Fatal("nil quarantine must be a no-op")
	}
	if q := NewQuarantine(""); q != nil {
		t.Fatal("empty dir should disable quarantine")
	}

	dir := filepath.Join(t.TempDir(), "quarantine")
	q := NewQuarantine(dir)
	if err := q.Save([]byte{0x13, 0x00, 0x00, 0x00}, "panic: boom\nstack..."); err != nil {
		t.Fatal(err)
	}
	// Same input, same detail: idempotent overwrite.
	if err := q.Save([]byte{0x13, 0x00, 0x00, 0x00}, "panic: boom\nstack..."); err != nil {
		t.Fatal(err)
	}
	// Same input, different fault: second entry.
	if err := q.Save([]byte{0x13, 0x00, 0x00, 0x00}, "watchdog timeout"); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var bins, txts int
	for _, e := range ents {
		switch filepath.Ext(e.Name()) {
		case ".bin":
			bins++
		case ".txt":
			txts++
		}
	}
	if bins != 2 || txts != 2 {
		t.Fatalf("want 2 entries, got %d bins %d txts: %v", bins, txts, ents)
	}
}
