package resilience

import "time"

// Guard runs fn(arg) under the fault-isolation layer: a panic is
// captured as a Recovered record, and — when timeout is positive — a run
// that exceeds the wall-clock deadline is reaped (timedOut true) with the
// goroutine abandoned. The abandoned goroutine may still be mutating
// whatever simulator instance arg holds and reading whatever it points
// to, so on timedOut the caller MUST discard that instance and rebuild a
// fresh one before the next case, and must not reuse arg's buffers.
//
// With timeout <= 0 the call runs inline on the caller's goroutine
// (panic capture only, no per-case goroutine cost) and allocates
// nothing: fn is a plain function and arg a value, so the caller builds
// no closure per call.
func Guard[A, T any](timeout time.Duration, fn func(A) T, arg A) (out T, rec *Recovered, timedOut bool) {
	if timeout <= 0 {
		rec = Safe(func() { out = fn(arg) })
		return out, rec, false
	}
	type result struct {
		v   T
		rec *Recovered
	}
	ch := make(chan result, 1)
	go func() {
		var r result
		r.rec = Safe(func() { r.v = fn(arg) })
		ch <- r
	}()
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.rec, false
	case <-timer.C:
		return out, nil, true
	}
}
