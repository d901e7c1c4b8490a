package resilience

import "time"

// Backoff is a jittered exponential backoff policy: the delay doubles on
// every consecutive failure up to a cap, and each delay is scattered
// uniformly over [delay/2, delay) so a fleet of restarting adapters never
// thunders in lockstep. The jitter is drawn from a seeded RNG, and
// backoff never reads the wall clock (the caller sleeps; this type only
// computes durations), keeping the policy usable from determinism-bound
// packages.
//
// The zero value is not ready to use: construct with NewBackoff.
type Backoff struct {
	// Base is the un-jittered first delay.
	Base time.Duration
	// Max caps the un-jittered exponential growth.
	Max time.Duration

	attempt int
	rng     *RNG
}

// Backoff growth stops doubling past this attempt count; with any sane
// Base the cap in Max has long been reached, and bounding the shift keeps
// the arithmetic overflow-free.
const maxBackoffShift = 32

// DefaultBackoffBase and DefaultBackoffMax are the restart-delay policy
// used when a caller leaves Base/Max zero.
const (
	DefaultBackoffBase = 50 * time.Millisecond
	DefaultBackoffMax  = 2 * time.Second
)

// NewBackoff builds a policy with its own jitter stream. Zero base or max
// select the defaults; the seed determines the jitter sequence.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = DefaultBackoffBase
	}
	if max <= 0 {
		max = DefaultBackoffMax
	}
	if max < base {
		max = base
	}
	return &Backoff{Base: base, Max: max, rng: NewRNG(seed)}
}

// Next returns the delay to wait before the next attempt and advances the
// attempt counter: Base for the first call, doubling (jittered) up to Max
// for each consecutive call until Reset.
func (b *Backoff) Next() time.Duration {
	d := b.Base
	shift := b.attempt
	if shift > maxBackoffShift {
		shift = maxBackoffShift
	}
	if shifted := d << shift; shifted > d && shifted < b.Max {
		d = shifted
	} else if shift > 0 {
		d = b.Max
	}
	if b.attempt < int(^uint(0)>>1) {
		b.attempt++
	}
	// Jitter over [d/2, d): full jitter halves the expected delay but
	// keeps the exponential envelope; half-floor jitter preserves a
	// meaningful minimum wait.
	if half := d / 2; half > 0 {
		d = half + time.Duration(b.rng.Uint64()%uint64(half))
	}
	return d
}

// Reset clears the consecutive-failure count after a success; the next
// delay starts from Base again. The jitter stream keeps advancing.
func (b *Backoff) Reset() { b.attempt = 0 }
