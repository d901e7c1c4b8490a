package resilience

import (
	"reflect"
	"testing"
)

// trip opens a breaker by recording Threshold consecutive faults.
func trip(b *Breaker) {
	for i := 0; i < b.Threshold; i++ {
		b.RecordFault()
	}
}

// transitions records what a breaker's OnTransition reports.
type transitions [][2]BreakerState

// watch installs t as b's OnTransition and returns b.
func (t *transitions) watch(b *Breaker) *Breaker {
	b.OnTransition = func(from, to BreakerState) { *t = append(*t, [2]BreakerState{from, to}) }
	return b
}

// state is the breaker's state after the last transition.
func (t transitions) state() BreakerState {
	if len(t) == 0 {
		return BreakerClosed
	}
	return t[len(t)-1][1]
}

// opens counts the closed → open transitions: one per open episode.
func (t transitions) opens() int {
	n := 0
	for _, tr := range t {
		if tr == [2]BreakerState{BreakerClosed, BreakerOpen} {
			n++
		}
	}
	return n
}

// TestBreakerHalfOpenRecovers walks the open → half-open → closed path:
// after HalfOpenAfter denied runs a single probe is admitted, and its
// success closes the breaker for good.
func TestBreakerHalfOpenRecovers(t *testing.T) {
	var tr transitions
	b := tr.watch(&Breaker{Threshold: 2, HalfOpenAfter: 3})
	trip(b)
	if tr.state() != BreakerOpen || !b.Tripped() {
		t.Fatalf("state after trip = %v, want open", tr.state())
	}
	for i := 0; i < 3; i++ {
		if b.Allow() {
			t.Fatalf("run %d allowed during cool-down", i)
		}
	}
	if !b.Allow() {
		t.Fatal("probe run denied after cool-down")
	}
	if tr.state() != BreakerHalfOpen || !b.Tripped() {
		t.Fatalf("state during probe = %v (tripped=%t), want half-open/tripped", tr.state(), b.Tripped())
	}
	// Runs racing the probe stay denied and do not burn cool-down.
	if b.Allow() {
		t.Fatal("second run allowed while probe in flight")
	}
	b.RecordOK()
	if tr.state() != BreakerClosed || b.Tripped() {
		t.Fatalf("state after successful probe = %v, want closed", tr.state())
	}
	if !b.Allow() {
		t.Fatal("closed breaker denied a run")
	}
	want := transitions{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("transitions = %v, want %v", tr, want)
	}
}

// TestBreakerHalfOpenReopens walks open → half-open → open: a failing
// probe re-opens the breaker and the cool-down starts over.
func TestBreakerHalfOpenReopens(t *testing.T) {
	var tr transitions
	b := tr.watch(&Breaker{Threshold: 2, HalfOpenAfter: 2})
	trip(b)
	if tr.opens() != 1 {
		t.Fatalf("%d closed → open transitions at trip, want 1", tr.opens())
	}
	b.Allow()
	b.Allow()
	if !b.Allow() {
		t.Fatal("probe denied after cool-down")
	}
	b.RecordFault()
	if tr.state() != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", tr.state())
	}
	if tr.opens() != 1 {
		t.Fatalf("the failed probe re-opened from closed (%d closed → open transitions); want half-open → open", tr.opens())
	}
	// Cool-down restarted: two more denials before the next probe.
	if b.Allow() || b.Allow() {
		t.Fatal("cool-down did not restart after failed probe")
	}
	if !b.Allow() {
		t.Fatal("second probe denied after fresh cool-down")
	}
	b.RecordOK()
	if tr.state() != BreakerClosed {
		t.Fatalf("state after recovered second probe = %v, want closed", tr.state())
	}
	want := transitions{
		{BreakerClosed, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerOpen},
		{BreakerOpen, BreakerHalfOpen},
		{BreakerHalfOpen, BreakerClosed},
	}
	if !reflect.DeepEqual(tr, want) {
		t.Fatalf("transitions = %v, want %v", tr, want)
	}
}

// TestBreakerStayOpenDefault: without HalfOpenAfter the historical
// behaviour is unchanged — open means open forever.
func TestBreakerStayOpenDefault(t *testing.T) {
	var tr transitions
	b := tr.watch(&Breaker{Threshold: 1})
	b.RecordFault()
	for i := 0; i < 100; i++ {
		if b.Allow() {
			t.Fatalf("stay-open breaker admitted run %d", i)
		}
	}
	if want := (transitions{{BreakerClosed, BreakerOpen}}); !reflect.DeepEqual(tr, want) {
		t.Fatalf("transitions = %v, want %v", tr, want)
	}
}

// TestBreakerClosedAllow: Allow on a closed breaker is free and does not
// mutate anything.
func TestBreakerClosedAllow(t *testing.T) {
	var tr transitions
	b := tr.watch(&Breaker{Threshold: 3, HalfOpenAfter: 1})
	for i := 0; i < 10; i++ {
		if !b.Allow() {
			t.Fatal("closed breaker denied a run")
		}
	}
	if len(tr) != 0 {
		t.Fatalf("transitions = %v, want none", tr)
	}
	// A re-trip after a full recovery opens again (new episode).
	trip(b)
	b.Allow()
	if !b.Allow() {
		t.Fatal("probe denied")
	}
	b.RecordOK()
	trip(b)
	if tr.opens() != 2 {
		t.Fatalf("%d closed → open transitions across two open episodes, want 2", tr.opens())
	}
}
