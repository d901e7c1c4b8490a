package resilience

import (
	"testing"
	"time"
)

// TestBackoffEnvelope: every delay lands in [envelope/2, envelope) where
// the envelope doubles from Base up to Max.
func TestBackoffEnvelope(t *testing.T) {
	base, max := 50*time.Millisecond, 2*time.Second
	b := NewBackoff(base, max, 1)
	envelope := base
	for i := 0; i < 12; i++ {
		d := b.Next()
		if d < envelope/2 || d >= envelope {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", i, d, envelope/2, envelope)
		}
		if envelope < max {
			envelope *= 2
			if envelope > max {
				envelope = max
			}
		}
	}
}

// TestBackoffReset: a success returns the policy to the Base envelope.
func TestBackoffReset(t *testing.T) {
	b := NewBackoff(100*time.Millisecond, time.Second, 7)
	for i := 0; i < 5; i++ {
		b.Next()
	}
	b.Reset()
	d := b.Next()
	if d < 50*time.Millisecond || d >= 100*time.Millisecond {
		t.Fatalf("post-Reset delay %v outside [50ms, 100ms)", d)
	}
}

// TestBackoffDeterministicPerSeed: the same seed yields the same delay
// sequence; different seeds diverge.
func TestBackoffDeterministicPerSeed(t *testing.T) {
	seq := func(seed int64) []time.Duration {
		b := NewBackoff(0, 0, seed)
		out := make([]time.Duration, 8)
		for i := range out {
			out[i] = b.Next()
		}
		return out
	}
	a, b := seq(42), seq(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := seq(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical jitter sequences")
	}
}

// TestBackoffDefaults: zero Base/Max select the documented defaults and
// Max is clamped to at least Base.
func TestBackoffDefaults(t *testing.T) {
	b := NewBackoff(0, 0, 1)
	if b.Base != DefaultBackoffBase || b.Max != DefaultBackoffMax {
		t.Fatalf("defaults = (%v, %v), want (%v, %v)", b.Base, b.Max, DefaultBackoffBase, DefaultBackoffMax)
	}
	c := NewBackoff(time.Second, time.Millisecond, 1)
	if c.Max != time.Second {
		t.Fatalf("Max below Base not clamped: %v", c.Max)
	}
}
