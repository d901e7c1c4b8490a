// Package coverage implements the three coverage signals that guide the
// fuzzer (paper sections III-B and IV-E):
//
//   - simulator code coverage: the semantic (operation, outcome) edges the
//     executor emits, bucketized AFL/libFuzzer-style so different hit
//     counts of the same edge count as new coverage;
//   - hash coverage: a hash of every fetched instruction word modulo a
//     configurable number N of coverage points — cheap, generic variance;
//   - custom rule coverage: structural and value predicates per
//     instruction (RD=x0, RD=RS1, Reg[RS1] OP Reg[RS2] against corner
//     values, immediate rules), compiled from a small specification.
package coverage

import (
	"fmt"
	mathbits "math/bits"
)

// Map is a bucketized hit-count coverage map. Per-run counts are folded
// into a persistent bucket bitmap; an input is interesting if it sets a
// bucket bit that no earlier input set (the libFuzzer/AFL notion of new
// coverage).
type Map struct {
	counts  []uint32
	global  []uint8
	touched []uint32
	bits    int
}

// NewMap allocates a map with the given number of coverage points.
func NewMap(size int) *Map {
	return &Map{counts: make([]uint32, size), global: make([]uint8, size)}
}

// Size returns the number of coverage points.
func (m *Map) Size() int { return len(m.counts) }

// Hit records one hit of a coverage point for the current run.
func (m *Map) Hit(id uint32) {
	if int(id) >= len(m.counts) {
		return
	}
	if m.counts[id] == 0 {
		m.touched = append(m.touched, id)
	}
	m.counts[id]++
}

// hitCount is one coverage point's hit count in a run.
type hitCount struct{ id, n uint32 }

// pendingHits returns the current run's hit counts in first-touch order.
func (m *Map) pendingHits() []hitCount {
	hs := make([]hitCount, len(m.touched))
	for i, id := range m.touched {
		hs[i] = hitCount{id, m.counts[id]}
	}
	return hs
}

// addHits adds hit counts to the current run, exactly as that many Hit
// calls in the same order would.
func (m *Map) addHits(hs []hitCount) {
	for _, h := range hs {
		if m.counts[h.id] == 0 {
			m.touched = append(m.touched, h.id)
		}
		m.counts[h.id] += h.n
	}
}

// bucketBit maps a hit count to its libFuzzer-style bucket bit.
func bucketBit(n uint32) uint8 {
	switch {
	case n == 0:
		return 0
	case n == 1:
		return 1 << 0
	case n == 2:
		return 1 << 1
	case n == 3:
		return 1 << 2
	case n <= 7:
		return 1 << 3
	case n <= 15:
		return 1 << 4
	case n <= 31:
		return 1 << 5
	case n <= 127:
		return 1 << 6
	}
	return 1 << 7
}

// MergeNew folds the current run's counts into the persistent map and
// resets them, reporting whether any new bucket bit appeared.
func (m *Map) MergeNew() bool {
	novel := false
	for _, id := range m.touched {
		b := bucketBit(m.counts[id])
		if m.global[id]&b == 0 {
			m.global[id] |= b
			m.bits++
			novel = true
		}
		m.counts[id] = 0
	}
	m.touched = m.touched[:0]
	return novel
}

// RunPoint is one coverage point the current run touched, paired with the
// bucket bit its hit count maps to.
type RunPoint struct {
	ID     uint32
	Bucket uint8
}

// RunFootprint captures the current run's coverage as sparse
// (point, bucket-bit) pairs without folding it into the persistent map.
// A footprint depends only on the run itself, so runs replayed
// concurrently on independent maps yield identical footprints; feeding
// them to MergeFootprint in case order reproduces MergeNew's greedy
// semantics exactly. The run stays pending: follow with MergeNew or
// DiscardRun.
func (m *Map) RunFootprint() []RunPoint {
	if len(m.touched) == 0 {
		return nil
	}
	fp := make([]RunPoint, 0, len(m.touched))
	for _, id := range m.touched {
		fp = append(fp, RunPoint{ID: id, Bucket: bucketBit(m.counts[id])})
	}
	return fp
}

// MergeFootprint folds a footprint (from RunFootprint, possibly taken on
// a different map of the same size) into the persistent bitmap,
// reporting whether any new bucket bit appeared — the replayed
// counterpart of MergeNew.
func (m *Map) MergeFootprint(fp []RunPoint) bool {
	novel := false
	for _, p := range fp {
		if int(p.ID) >= len(m.global) {
			continue
		}
		if m.global[p.ID]&p.Bucket == 0 {
			m.global[p.ID] |= p.Bucket
			m.bits++
			novel = true
		}
	}
	return novel
}

// DiscardRun drops the current run's counts without merging.
func (m *Map) DiscardRun() {
	for _, id := range m.touched {
		m.counts[id] = 0
	}
	m.touched = m.touched[:0]
}

// BucketBits returns the total number of bucket bits set so far (the
// fuzzer's coverage progress measure).
func (m *Map) BucketBits() int { return m.bits }

// PointsCovered returns how many coverage points have been hit at least
// once.
func (m *Map) PointsCovered() int {
	n := 0
	for _, g := range m.global {
		if g != 0 {
			n++
		}
	}
	return n
}

// Frontier returns a copy of the persistent bucket bitmap — the coverage
// frontier a checkpoint must preserve for a resumed campaign to make the
// same novelty decisions.
func (m *Map) Frontier() []byte {
	out := make([]byte, len(m.global))
	copy(out, m.global)
	return out
}

// RestoreFrontier replaces the persistent bitmap with a checkpointed one,
// recomputing the bucket-bit total and discarding any pending run.
func (m *Map) RestoreFrontier(frontier []byte) error {
	if len(frontier) != len(m.global) {
		return fmt.Errorf("coverage: frontier size %d, map size %d", len(frontier), len(m.global))
	}
	copy(m.global, frontier)
	n := 0
	for _, g := range m.global {
		n += mathbits.OnesCount8(g)
	}
	m.bits = n
	m.DiscardRun()
	return nil
}

// Reset clears all persistent coverage.
func (m *Map) Reset() {
	for i := range m.global {
		m.global[i] = 0
	}
	for _, id := range m.touched {
		m.counts[id] = 0
	}
	m.touched = m.touched[:0]
	m.bits = 0
}

// fnv1a32 hashes an instruction word (the paper uses std::hash<uint32_t>;
// any well-mixed hash serves).
func fnv1a32(w uint32) uint32 {
	h := uint32(2166136261)
	for i := 0; i < 4; i++ {
		h ^= w & 0xff
		h *= 16777619
		w >>= 8
	}
	return h
}
