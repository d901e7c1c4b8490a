package sut

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/sim"
	"rvnegtest/internal/template"
)

// TestMain doubles as the adapter subprocess: when the helper env var is
// set, the test binary serves the protocol on stdin/stdout instead of
// running tests — the standard helper-process pattern, so the adapter
// tests exercise real processes, real pipes, and real kills.
func TestMain(m *testing.M) {
	if os.Getenv("SUT_ADAPTER_HELPER") == "1" {
		helperMain()
		return
	}
	os.Exit(m.Run())
}

func helperMain() {
	if n, _ := strconv.Atoi(os.Getenv("SUT_STDERR_SPAM")); n > 0 {
		os.Stderr.Write(bytes.Repeat([]byte("spam-line\n"), (n+9)/10))
	}
	name := os.Getenv("SUT_VARIANT")
	if name == "" {
		name = "reference"
	}
	v, ok := sim.ByName(name)
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown variant %q\n", name)
		os.Exit(2)
	}
	mode, err := ParseMisbehave(os.Getenv("SUT_MISBEHAVE"))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	after, _ := strconv.Atoi(os.Getenv("SUT_AFTER"))
	if err := Serve(os.Stdin, os.Stdout, NewSimHandler(v), ServeOpts{Misbehave: mode, After: after}); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// helperSpec builds a Spec that re-executes this test binary as the
// adapter, with fast timeouts so misbehaviour tests stay quick.
func helperSpec(env ...string) Spec {
	return Spec{
		Name:             "helper",
		Argv:             []string{os.Args[0]},
		Env:              append([]string{"SUT_ADAPTER_HELPER=1"}, env...),
		HandshakeTimeout: 10 * time.Second,
		RunTimeout:       10 * time.Second,
		BackoffBase:      time.Millisecond,
		BackoffMax:       4 * time.Millisecond,
		Seed:             1,
	}
}

// supervision counts what an adapter reports through OnRestart and
// OnRetry. Every retry follows one failed attempt, so a run that returns
// a Fault failed retries+1 attempts and one that succeeds failed retries.
type supervision struct{ restarts, retries int }

// watch counts a's restarts and retries.
func watch(a *Adapter) *supervision {
	sv := &supervision{}
	a.OnRestart = func() { sv.restarts++ }
	a.OnRetry = func() { sv.retries++ }
	return sv
}

// testCase is a small deterministic bytestream: addi x1,x0,1 then an
// all-zero word (a guaranteed illegal instruction, so the run also
// exercises the trap path).
var testCase = []byte{0x93, 0x00, 0x10, 0x00, 0x00, 0x00, 0x00, 0x00}

// TestAdapterParity: the subprocess path returns byte-identical results
// to running the same variant in-process — the core guarantee that makes
// external reference adapters trustworthy.
func TestAdapterParity(t *testing.T) {
	for _, variant := range []string{"reference", "Spike"} {
		for _, fam := range []template.Family{template.FamilyUser, template.FamilyTrap} {
			v, _ := sim.ByName(variant)
			p := template.PlatformFor(fam, mustConfig(t, "RV32IMC"))
			local, err := sim.New(v, p)
			if err != nil {
				t.Fatal(err)
			}
			want := local.Run(testCase)

			a := NewAdapter(helperSpec("SUT_VARIANT=" + variant))
			defer a.Close()
			got, f := a.Run(byte(fam), "RV32IMC", testCase)
			if f != nil {
				t.Fatalf("%s/%v: adapter fault: %s", variant, fam, f.Detail())
			}
			wantRes := RunResult{Signature: want.Signature, Crashed: want.Crashed,
				TimedOut: want.TimedOut, Msg: want.CrashMsg, Insts: want.Insts, Traps: want.Traps}
			if !reflect.DeepEqual(got, wantRes) {
				t.Fatalf("%s/%v: adapter result %+v, in-process %+v", variant, fam, got, wantRes)
			}
		}
	}
}

// TestProbe: the capability preflight reports the variant's identity; a
// NoFD variant advertises no FP capability.
func TestProbe(t *testing.T) {
	info, f := Probe(helperSpec("SUT_VARIANT=VP"))
	if f != nil {
		t.Fatalf("probe fault: %s", f.Detail())
	}
	if info.Name != "VP" || info.Proto != ProtoVersion {
		t.Fatalf("info = %+v", info)
	}
	if info.Caps&CapFP != 0 {
		t.Fatal("NoFD variant advertises CapFP")
	}
	if info.Caps&CapTrap == 0 {
		t.Fatal("built-in variant lacks CapTrap")
	}

	ref, f := Probe(helperSpec())
	if f != nil {
		t.Fatalf("probe fault: %s", f.Detail())
	}
	if ref.Caps&CapFP == 0 {
		t.Fatal("reference lacks CapFP")
	}
}

// TestAdapterHang: a wedged adapter is reaped by the run watchdog, and
// every retry hits the same wedge — the fault survives with watchdog
// context and the supervision counters add up.
func TestAdapterHang(t *testing.T) {
	spec := helperSpec("SUT_MISBEHAVE=hang")
	spec.RunTimeout = 100 * time.Millisecond
	spec.Retries = 1
	a := NewAdapter(spec)
	defer a.Close()
	sv := watch(a)
	_, f := a.Run(0, "RV32I", testCase)
	if f == nil {
		t.Fatal("hung adapter produced a result")
	}
	if !strings.Contains(f.Reason, "watchdog") {
		t.Fatalf("reason = %q, want watchdog", f.Reason)
	}
	if f.LastFrame != "HELLO-OK" {
		t.Fatalf("last frame = %q, want HELLO-OK (hang happens after handshake)", f.LastFrame)
	}
	if sv.retries != 1 || sv.restarts != 1 {
		t.Fatalf("supervision = %+v, want 1 retry / 1 restart (2 failed attempts)", *sv)
	}
}

// TestAdapterCrashHeals: a crash after N good runs is healed by the
// restart — the retried case succeeds on the fresh process and the final
// result is indistinguishable from an untroubled run.
func TestAdapterCrashHeals(t *testing.T) {
	a := NewAdapter(helperSpec("SUT_MISBEHAVE=crash", "SUT_AFTER=1"))
	defer a.Close()
	sv := watch(a)
	first, f := a.Run(0, "RV32I", testCase)
	if f != nil {
		t.Fatalf("first run fault: %s", f.Detail())
	}
	second, f := a.Run(0, "RV32I", testCase)
	if f != nil {
		t.Fatalf("second run not healed: %s", f.Detail())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("healed run diverged: %+v vs %+v", first, second)
	}
	if sv.restarts != 1 || sv.retries != 1 {
		t.Fatalf("supervision = %+v, want 1 restart / 1 retry (1 failed attempt)", *sv)
	}
}

// TestAdapterPermanentCrash: a crash loop exhausts the retry budget and
// surfaces an EOF fault.
func TestAdapterPermanentCrash(t *testing.T) {
	spec := helperSpec("SUT_MISBEHAVE=crash")
	spec.Retries = 2
	a := NewAdapter(spec)
	defer a.Close()
	sv := watch(a)
	_, f := a.Run(0, "RV32I", testCase)
	if f == nil {
		t.Fatal("crash-looping adapter produced a result")
	}
	if !strings.Contains(f.Reason, "EOF") {
		t.Fatalf("reason = %q, want EOF", f.Reason)
	}
	if sv.retries != 2 {
		t.Fatalf("supervision = %+v, want 2 retries (3 failed attempts)", *sv)
	}
}

// TestAdapterGarbage: junk bytes on the pipe are classified as protocol
// garbage (ErrProto context in the fault), not a hang.
func TestAdapterGarbage(t *testing.T) {
	spec := helperSpec("SUT_MISBEHAVE=garbage")
	spec.Retries = -1
	a := NewAdapter(spec)
	defer a.Close()
	_, f := a.Run(0, "RV32I", testCase)
	if f == nil {
		t.Fatal("garbage-writing adapter produced a result")
	}
	if !strings.Contains(f.Reason, "protocol error") {
		t.Fatalf("reason = %q, want protocol error", f.Reason)
	}
}

// TestAdapterTruncate: a frame whose payload is cut short by process
// exit is a protocol fault, not a partial result.
func TestAdapterTruncate(t *testing.T) {
	spec := helperSpec("SUT_MISBEHAVE=truncate")
	spec.Retries = -1
	a := NewAdapter(spec)
	defer a.Close()
	_, f := a.Run(0, "RV32I", testCase)
	if f == nil {
		t.Fatal("truncating adapter produced a result")
	}
	if !strings.Contains(f.Reason, "protocol error") && !strings.Contains(f.Reason, "truncated") {
		t.Fatalf("reason = %q, want truncation context", f.Reason)
	}
}

// TestAdapterStderrTail: fault details carry the adapter's stderr,
// bounded by the configured tail size.
func TestAdapterStderrTail(t *testing.T) {
	spec := helperSpec("SUT_MISBEHAVE=crash", "SUT_STDERR_SPAM=1000")
	spec.Retries = -1
	spec.StderrTail = 64
	a := NewAdapter(spec)
	defer a.Close()
	_, f := a.Run(0, "RV32I", testCase)
	if f == nil {
		t.Fatal("crashing adapter produced a result")
	}
	if f.StderrTail == "" {
		t.Fatal("fault carries no stderr tail")
	}
	if len(f.StderrTail) > 64 {
		t.Fatalf("stderr tail %d bytes, bound is 64", len(f.StderrTail))
	}
	if !strings.Contains(f.Detail(), "stderr tail") {
		t.Fatalf("detail lacks stderr section:\n%s", f.Detail())
	}
}

// TestAdapterErrPermanent: an in-protocol refusal (unsupported config)
// is permanent — no kill, no retries, and the process keeps serving.
func TestAdapterErrPermanent(t *testing.T) {
	a := NewAdapter(helperSpec())
	defer a.Close()
	sv := watch(a)
	_, f := a.Run(0, "BOGUS", testCase)
	if f == nil || !f.Permanent {
		t.Fatalf("refusal fault = %+v, want permanent", f)
	}
	if !strings.Contains(f.Reason, "refused") {
		t.Fatalf("reason = %q", f.Reason)
	}
	if sv.retries != 0 {
		t.Fatalf("refusal was retried %d times", sv.retries)
	}
	// The process was not killed: the next good run reuses it.
	if _, f := a.Run(0, "RV32I", testCase); f != nil {
		t.Fatalf("follow-up run failed: %s", f.Detail())
	}
	if sv.restarts != 0 {
		t.Fatalf("refusal triggered %d restarts", sv.restarts)
	}
}

// TestAdapterKillRestart: SIGKILLing the live process between runs (the
// operator's kill -9) is healed transparently by the next run's respawn.
func TestAdapterKillRestart(t *testing.T) {
	a := NewAdapter(helperSpec())
	defer a.Close()
	sv := watch(a)
	first, f := a.Run(0, "RV32I", testCase)
	if f != nil {
		t.Fatalf("first run: %s", f.Detail())
	}
	a.p.cmd.Process.Kill()
	second, f := a.Run(0, "RV32I", testCase)
	if f != nil {
		t.Fatalf("run after kill: %s", f.Detail())
	}
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("post-kill run diverged: %+v vs %+v", first, second)
	}
	if sv.restarts == 0 {
		t.Fatal("kill healed without a restart?")
	}
}

func mustConfig(t *testing.T, s string) isa.Config {
	t.Helper()
	c, err := isa.ParseConfig(s)
	if err != nil {
		t.Fatal(err)
	}
	return c
}
