package exec

import (
	"rvnegtest/internal/isa"
)

// Entry states: an invalid slot routes the fetch through the slow path
// (and a refill), a legal slot dispatches through its handler, an
// illegal slot traps without re-decoding.
const (
	entryInvalid uint8 = iota
	entryLegal
	entryIllegal
)

// cacheEntry is one halfword slot of a DecodeCache: the decoded
// instruction plus everything the fast path needs precomputed — the
// resolved handler and the configuration-legality verdict. Only the
// mstatus.FS check stays at dispatch time (fp), because software can
// toggle it mid-run.
type cacheEntry struct {
	inst  isa.Inst
	fn    handlerFn
	state uint8
	fp    bool // legal FP op: re-check FPEnabled at dispatch time
	dirty bool // deviates from the pristine predecode; undone by Reset
}

// CacheStats are the cumulative decode-cache counters of one executor
// lineage (fed into the predecode_* telemetry series). Every executed
// step is exactly one hit or one miss, so Hits+Misses is the number of
// fetches actually performed through the cache.
type CacheStats struct {
	// Hits counts fetches served from the cache (legal and illegal
	// entries alike).
	Hits uint64
	// Misses counts fetches that took the slow path: invalid slots,
	// odd PCs and fetches outside the cached range.
	Misses uint64
	// Invalidations counts executed stores (and injection writes) that
	// overlapped the cached range and knocked out at least one slot.
	Invalidations uint64
}

// DecodeCache maps a predecoded code range to ready-to-dispatch entries
// for one ISA configuration. The Predecoded itself is immutable and
// shared across clones; the entries array is per-cache, so invalidation
// and refill stay private to one executor lineage. The cache tracks
// which slots deviate from the pristine predecode, making Reset cost
// proportional to the deviation (mirroring mem.Restore's dirty pages).
type DecodeCache struct {
	pd      *isa.Predecoded
	cfg     isa.Config
	base    uint32
	span    uint32
	entries []cacheEntry
	touched []int32
	stats   CacheStats
}

// NewDecodeCache derives dispatch entries from a predecode for one ISA
// configuration. The configuration must match the hart the cache is
// attached to: legality verdicts are baked into the entries.
func NewDecodeCache(pd *isa.Predecoded, cfg isa.Config) *DecodeCache {
	c := &DecodeCache{
		pd:      pd,
		cfg:     cfg,
		base:    pd.Base,
		span:    uint32(2 * len(pd.Insts)),
		entries: make([]cacheEntry, len(pd.Insts)),
	}
	for i := range pd.Insts {
		c.entries[i] = makeEntry(&pd.Insts[i], cfg)
	}
	return c
}

// makeEntry computes the dispatch entry for one decoded record under a
// configuration, reproducing the legality ladder of the slow path.
func makeEntry(in *isa.Inst, cfg isa.Config) cacheEntry {
	if in.Size == 0 {
		return cacheEntry{} // not predecodable: always slow-path
	}
	if in.Size == 2 && !cfg.Has(isa.ExtC) {
		// Without the C extension the RVC decoder is never entered; the
		// halfword is simply an illegal encoding, whatever it would
		// have expanded to.
		return cacheEntry{
			inst:  isa.Inst{Op: isa.OpIllegal, Raw: in.Raw, Size: 2},
			state: entryIllegal,
		}
	}
	info := in.Info()
	if info == nil || !cfg.Has(info.Ext) {
		return cacheEntry{inst: *in, state: entryIllegal}
	}
	return cacheEntry{
		inst:  *in,
		fn:    handlers[in.Op],
		state: entryLegal,
		fp:    info.Flags.Is(isa.FlagFP),
	}
}

// Clone returns an independent cache sharing only the immutable
// predecode. The clone copies the current entries (they must match the
// memory image it is paired with, which is cloned the same way) and
// starts with fresh counters: per-clone hit/miss/invalidation counts are
// independent, so a campaign-level fold over clones is a plain sum in
// clone order. Safe on a nil receiver.
func (c *DecodeCache) Clone() *DecodeCache {
	if c == nil {
		return nil
	}
	n := *c
	n.entries = append([]cacheEntry(nil), c.entries...)
	n.touched = append([]int32(nil), c.touched...)
	n.stats = CacheStats{}
	return &n
}

// Reset restores every deviated slot to the pristine predecode, in cost
// proportional to the number of deviated slots. Call it whenever the
// backing memory is restored to its snapshot.
func (c *DecodeCache) Reset() {
	for _, i := range c.touched {
		c.entries[i] = makeEntry(&c.pd.Insts[i], c.cfg)
	}
	c.touched = c.touched[:0]
}

// InvalidateRange knocks out every slot a write of size bytes at addr
// may have changed. The slot one halfword before the written range is
// included: a 32-bit encoding starting there spans into it. The common
// case — a write nowhere near the code range — is two comparisons.
//
// The overlap test is deliberately asymmetric at the two image edges.
// At the low edge the back-widened lo may underflow past base (a write
// at offset 0 has no predecessor slot), so the guard compares hi, and
// the loop start is clamped to base. At the high edge the un-widened
// write address decides: no cached encoding extends past limit (the
// predecode leaves range-end straddles lazy and fill refuses spanning
// encodings), so a write at or past limit cannot change any cached slot
// — but back-widening must NOT be applied before this test, or a write
// at limit/limit+1 would invalidate (and count against) the last
// halfword it provably does not affect.
func (c *DecodeCache) InvalidateRange(addr, size uint32) {
	lo := int64(addr) - 2
	hi := int64(addr) + int64(size)
	base, limit := int64(c.base), int64(c.base)+int64(c.span)
	if hi <= base || int64(addr) >= limit {
		return
	}
	if lo < base {
		lo = base
	}
	if hi > limit {
		hi = limit
	}
	for i := (lo - base) >> 1; i < (hi-base+1)>>1; i++ {
		e := &c.entries[i]
		if !e.dirty {
			c.touched = append(c.touched, int32(i))
		}
		*e = cacheEntry{dirty: true}
	}
	c.stats.Invalidations++
}

// fill caches the decode outcome the slow path just produced for an
// in-range fetch. An encoding that spans past the cached range stays
// uncached: a write beyond the range end could never invalidate it.
func (c *DecodeCache) fill(addr uint32, in *isa.Inst) {
	off := addr - c.base
	if off >= c.span || off&1 != 0 {
		return
	}
	if int64(addr)+int64(in.Size) > int64(c.base)+int64(c.span) {
		return
	}
	i := off >> 1
	e := makeEntry(in, c.cfg)
	e.dirty = true
	if !c.entries[i].dirty {
		c.touched = append(c.touched, int32(i))
	}
	c.entries[i] = e
}

// Stats returns the cumulative counters. Safe on a nil receiver.
func (c *DecodeCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return c.stats
}
