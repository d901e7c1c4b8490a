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
	"math"
	mathbits "math/bits"
	"slices"
)

// Map is a bucketized hit-count coverage map. Per-run counts are folded
// into a persistent bucket bitmap; an input is interesting if it sets a
// bucket bit that no earlier input set (the libFuzzer/AFL notion of new
// coverage).
//
// A Collector may install a baseline: the fixed hits of the template's
// prefix and dump, which every run that skips both shares. Such a run
// records only its delta against the baseline, and MergeNew walks the
// delta's points and the few baseline points whose bucket the frontier
// still lacks instead of the ~200 points every run shares (DESIGN §19).
type Map struct {
	counts  []uint32 // the run's hit counts; a based run's delta (wrapping)
	global  []uint8
	touched []uint32 // the points whose count left zero, possibly twice
	bits    int

	base    []uint8    // the baseline's count per point
	baseIDs []uint32   // the baseline's points, sorted
	pending []uint32   // baseline points whose base bucket global may lack
	prefix  []hitCount // the baseline's prefix part
	hasBase bool       // a baseline is installed
	run     runKind
}

// runKind is what the pending run's counts stand for.
type runKind uint8

const (
	runPlain  runKind = iota // the run's hits
	runPrefix                // the run's hits, less the baseline's prefix part
	runBased                 // the run's hits, less the whole baseline
)

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

// pendingHits returns the (point, count) pairs of a plain run, the only
// kind a Collector records its prefix and dump hits from.
func (m *Map) pendingHits() []hitCount {
	hs := make([]hitCount, len(m.touched))
	for i, id := range m.touched {
		hs[i] = hitCount{id, m.counts[id]}
	}
	return hs
}

// addHits adds hit counts to the current run, exactly as that many Hit
// calls would.
func (m *Map) addHits(hs []hitCount) {
	for _, h := range hs {
		if m.counts[h.id] == 0 {
			m.touched = append(m.touched, h.id)
		}
		m.counts[h.id] += h.n
	}
}

// subHits takes hit counts back from the current run. A count may pass
// through zero, so a point can enter touched twice.
func (m *Map) subHits(hs []hitCount) {
	for _, h := range hs {
		if m.counts[h.id] == 0 {
			m.touched = append(m.touched, h.id)
		}
		m.counts[h.id] -= h.n
	}
}

// rebase settles the pending run and installs the baseline of a run
// that skips the prefix and the dump: the sum of their hits. It
// installs none when a count would not fit a uint8; the runs then add
// the fixed hits themselves. A point is hit at most once per
// instruction, and the prefix and dump of every shipped template are at
// most 148 instructions, so only a far larger template gets there.
func (m *Map) rebase(prefix, dump []hitCount) {
	m.settle()
	m.unbase()
	if m.base == nil {
		m.base = make([]uint8, len(m.counts))
	}
	for _, h := range slices.Concat(prefix, dump) {
		n := m.base[h.id]
		if h.n > math.MaxUint8-uint32(n) {
			m.unbase()
			return
		}
		if n == 0 {
			m.baseIDs = append(m.baseIDs, h.id)
		}
		m.base[h.id] = n + uint8(h.n)
	}
	slices.Sort(m.baseIDs)
	m.prefix, m.hasBase = prefix, true
	m.refill()
}

// unbase removes the baseline.
func (m *Map) unbase() {
	for _, id := range m.baseIDs {
		m.base[id] = 0
	}
	m.baseIDs, m.pending, m.prefix, m.hasBase = m.baseIDs[:0], m.pending[:0], nil, false
}

// refill lists the baseline points whose base bucket global lacks.
func (m *Map) refill() {
	m.pending = m.pending[:0]
	for _, id := range m.baseIDs {
		if m.global[id]&bucketBit(uint32(m.base[id])) == 0 {
			m.pending = append(m.pending, id)
		}
	}
}

// skipPrefix starts a run that leaves the prefix's hits to the baseline,
// and reports whether it could: a baseline is installed and no pending
// run has left hits to it already.
func (m *Map) skipPrefix() bool {
	if !m.hasBase || m.run != runPlain {
		return false
	}
	m.run = runPrefix
	return true
}

// skipDump leaves the dump's hits at the recorded register values to
// the baseline, and reports whether it could: the run left the prefix's
// to it. The caller installed the baseline of the current dump.
func (m *Map) skipDump() bool {
	if m.run != runPrefix {
		return false
	}
	m.run = runBased
	return true
}

// settle makes the pending run plain by adding the fixed hits it left
// to the baseline.
func (m *Map) settle() {
	switch m.run {
	case runPrefix:
		m.addHits(m.prefix)
	case runBased:
		for _, id := range m.baseIDs {
			if m.counts[id] == 0 {
				m.touched = append(m.touched, id)
			}
			m.counts[id] += uint32(m.base[id])
		}
	}
	m.run = runPlain
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
// resets them, reporting whether any new bucket bit appeared. A point
// whose total count is zero merges nothing: bucketBit(0) is no bucket.
func (m *Map) MergeNew() bool {
	novel := false
	switch m.run {
	case runPrefix:
		m.settle()
	case runBased:
		novel = m.mergePending()
	}
	based := m.run == runBased
	for _, id := range m.touched {
		n := m.counts[id]
		if n == 0 {
			continue // unchanged, or seen before in touched
		}
		m.counts[id] = 0
		if based {
			n += uint32(m.base[id])
		}
		if b := bucketBit(n); b != 0 && m.global[id]&b == 0 {
			m.global[id] |= b
			m.bits++
			novel = true
		}
	}
	m.touched = m.touched[:0]
	m.run = runPlain
	return novel
}

// mergePending merges the base bucket of each pending baseline point
// the based run left unchanged; a point with a delta merges its own
// total in MergeNew. Points whose base bucket is set leave the list.
func (m *Map) mergePending() bool {
	novel := false
	k := 0
	for _, id := range m.pending {
		b := bucketBit(uint32(m.base[id]))
		switch {
		case m.global[id]&b != 0:
		case m.counts[id] == 0:
			m.global[id] |= b
			m.bits++
			novel = true
		default:
			m.pending[k] = id
			k++
		}
	}
	m.pending = m.pending[:k]
	return novel
}

// RunPoint is one coverage point the current run touched, paired with the
// bucket bit its hit count maps to.
type RunPoint struct {
	ID     uint32
	Bucket uint8
}

// RunFootprint captures the current run's coverage as sparse
// (point, bucket-bit) pairs, sorted by point ID, without folding it into
// the persistent map. A footprint depends only on the run itself,
// whether or not it skipped the prefix and the dump, so differential
// tests compare two runs of one input through their footprints. The run
// stays pending: follow with MergeNew or DiscardRun.
func (m *Map) RunFootprint() []RunPoint {
	if m.run == runPrefix {
		m.settle()
	}
	slices.Sort(m.touched)
	n := 0
	m.eachPoint(func(RunPoint) { n++ })
	if n == 0 {
		return nil
	}
	fp := make([]RunPoint, 0, n)
	m.eachPoint(func(p RunPoint) { fp = append(fp, p) })
	return fp
}

// eachPoint calls f with each of the run's points of non-zero total
// count in ID order, merging the sorted touched list with a based run's
// baseline points.
func (m *Map) eachPoint(f func(RunPoint)) {
	ts, bs := m.touched, []uint32(nil)
	if m.run == runBased {
		bs = m.baseIDs
	}
	for len(ts) > 0 || len(bs) > 0 {
		var id uint32
		if len(bs) == 0 || len(ts) > 0 && ts[0] <= bs[0] {
			id = ts[0]
		} else {
			id = bs[0]
		}
		n := uint32(0)
		for len(ts) > 0 && ts[0] == id {
			n, ts = m.counts[id], ts[1:]
		}
		if len(bs) > 0 && bs[0] == id {
			n, bs = n+uint32(m.base[id]), bs[1:]
		}
		if n != 0 {
			f(RunPoint{ID: id, Bucket: bucketBit(n)})
		}
	}
}

// DiscardRun drops the current run's counts without merging.
func (m *Map) DiscardRun() {
	for _, id := range m.touched {
		m.counts[id] = 0
	}
	m.touched = m.touched[:0]
	m.run = runPlain
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
	m.refill()
	return nil
}

// Reset clears all persistent coverage.
func (m *Map) Reset() {
	clear(m.global)
	m.DiscardRun()
	m.bits = 0
	m.refill()
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
