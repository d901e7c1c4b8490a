package sim

import (
	"slices"
	"testing"

	"rvnegtest/internal/isa"
	"rvnegtest/internal/template"
)

func faultyPlatform(t *testing.T) template.Platform {
	t.Helper()
	return template.Platform{Layout: template.DefaultLayout, Cfg: isa.RV32I}
}

// A NOP passes every decoder, so the inner reference simulator produces a
// clean signature for it.
var nopCase = []byte{0x13, 0x00, 0x00, 0x00}

func TestSeededScheduleDeterministic(t *testing.T) {
	plan := SeededSchedule(42, 0.2, 0.2, 0.2)
	inputs := [][]byte{nopCase, {0xff, 0xff}, {0x01}, {0x13, 0x05, 0x00, 0x00}, nil}
	var first []Fault
	for _, in := range inputs {
		first = append(first, plan(in))
	}
	// Re-evaluating (any order) yields the same decision per input.
	for i := len(inputs) - 1; i >= 0; i-- {
		if got := plan(inputs[i]); got != first[i] {
			t.Fatalf("input %d: fault %v then %v — schedule not deterministic", i, first[i], got)
		}
	}
	// A different seed produces a different plan for at least one input of
	// a larger sample (overwhelmingly likely with 20%/fault probabilities).
	other := SeededSchedule(43, 0.2, 0.2, 0.2)
	same := true
	for i := 0; i < 64; i++ {
		in := []byte{byte(i), byte(i >> 1)}
		if plan(in) != other(in) {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical schedules over 64 inputs")
	}
}

func TestFaultyPanicMessagePreserved(t *testing.T) {
	inner, err := New(Reference, faultyPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	f := &Faulty{
		Inner:    inner,
		Plan:     func([]byte) Fault { return FaultPanic },
		PanicMsg: "sail decoder crash: illegal encoding",
	}
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("FaultPanic did not panic")
		}
		if got, _ := r.(string); got != "sail decoder crash: illegal encoding" {
			t.Fatalf("panic value %v, want the configured message", r)
		}
	}()
	f.Run(nopCase)
}

func TestFaultyCorruptSignature(t *testing.T) {
	inner, err := New(Reference, faultyPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	clean := inner.Run(nopCase)
	if clean.Crashed || len(clean.Signature) == 0 {
		t.Fatalf("reference run not clean: %+v", clean)
	}
	f := &Faulty{Inner: inner, Plan: func([]byte) Fault { return FaultCorruptSig }}
	bad := f.Run(nopCase)
	if bad.Crashed {
		t.Fatalf("corrupt-sig run crashed: %s", bad.CrashMsg)
	}
	diff := 0
	for i := range clean.Signature {
		if clean.Signature[i] != bad.Signature[i] {
			diff++
		}
	}
	if diff != 1 {
		t.Fatalf("corruption changed %d signature words, want exactly 1", diff)
	}
	// The corruption must not write through to the inner simulator's data.
	again := inner.Run(nopCase)
	for i := range clean.Signature {
		if clean.Signature[i] != again.Signature[i] {
			t.Fatal("corruption leaked into the wrapped simulator's signature")
		}
	}
	// Same input, same corrupted word: the wrapper itself is deterministic.
	bad2 := f.Run(nopCase)
	for i := range bad.Signature {
		if bad.Signature[i] != bad2.Signature[i] {
			t.Fatal("corrupt-sig injection not deterministic per input")
		}
	}
	// RunInto flips the same word, in the caller's buffer.
	buf := make([]uint32, len(clean.Signature))
	into := f.RunInto(nopCase, buf)
	if &into.Signature[0] != &buf[0] || !slices.Equal(buf, bad.Signature) {
		t.Fatalf("RunInto gave %v in its own slice %v, want %v in the caller's buffer",
			into.Signature, &into.Signature[0] != &buf[0], bad.Signature)
	}
}

func TestFaultyNoneDelegates(t *testing.T) {
	inner, err := New(Reference, faultyPlatform(t))
	if err != nil {
		t.Fatal(err)
	}
	f := &Faulty{Inner: inner} // nil Plan: never fault
	got := f.Run(nopCase)
	want := inner.Run(nopCase)
	if got.Crashed != want.Crashed || len(got.Signature) != len(want.Signature) {
		t.Fatalf("pass-through outcome differs: %+v vs %+v", got, want)
	}
	for i := range want.Signature {
		if got.Signature[i] != want.Signature[i] {
			t.Fatal("pass-through signature differs")
		}
	}
}
