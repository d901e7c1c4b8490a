// Package mem provides the little-endian physical memory used by the
// instruction-set simulators: a single contiguous region (32 KiB in the
// paper's setup) with typed accessors, access-fault reporting and a fast
// snapshot/restore mechanism so a pre-loaded test-case template can be
// reset between fuzzer executions without re-copying the whole image.
package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/bits"
	"slices"
)

// pageBits selects the dirty-tracking granularity (256-byte pages).
const pageBits = 8

// AccessError reports an access outside the memory region.
type AccessError struct {
	Addr  uint32
	Size  uint32
	Write bool
}

func (e *AccessError) Error() string {
	kind := "load"
	if e.Write {
		kind = "store"
	}
	return fmt.Sprintf("mem: %s access fault at %#08x (%d bytes)", kind, e.Addr, e.Size)
}

// Memory is a byte-addressable little-endian memory region.
type Memory struct {
	base uint32
	data []byte

	snapshot []byte   // pristine image for Restore; nil until Snapshot
	dirty    []uint64 // per-page dirty bitmap, maintained once a snapshot exists
}

// New allocates a zeroed memory region of the given size at base.
func New(base, size uint32) *Memory {
	return &Memory{base: base, data: make([]byte, size)}
}

// Base returns the first valid address.
func (m *Memory) Base() uint32 { return m.base }

// Size returns the region size in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.data)) }

// Contains reports whether an access of size bytes at addr lies fully
// inside the region.
func (m *Memory) Contains(addr, size uint32) bool {
	off := uint64(addr) - uint64(m.base)
	return addr >= m.base && off+uint64(size) <= uint64(len(m.data))
}

// span returns the bytes at addr for an access of size bytes, marking
// their pages dirty on a write; ok is false when the access lies outside
// the region.
func (m *Memory) span(addr, size uint32, write bool) (b []byte, ok bool) {
	if !m.Contains(addr, size) {
		return nil, false
	}
	off := addr - m.base
	if write && m.dirty != nil {
		for p := off >> pageBits; p <= (off+size-1)>>pageBits; p++ {
			m.dirty[p>>6] |= 1 << (p & 63)
		}
	}
	return m.data[off:], true
}

// Load reads a little-endian value of 1, 2, 4 or 8 bytes; ok is false on
// an access fault. Unlike the Read methods it never allocates, so a
// simulated access fault costs no garbage.
func (m *Memory) Load(addr, size uint32) (v uint64, ok bool) {
	if size == 8 {
		lo, ok := m.Load(addr, 4)
		if !ok {
			return 0, false
		}
		hi, ok := m.Load(addr+4, 4)
		return hi<<32 | lo, ok
	}
	b, ok := m.span(addr, size, false)
	if !ok {
		return 0, false
	}
	switch size {
	case 1:
		return uint64(b[0]), true
	case 2:
		return uint64(binary.LittleEndian.Uint16(b)), true
	}
	return uint64(binary.LittleEndian.Uint32(b)), true
}

// Fetch reads the little-endian word at addr, the way an instruction
// fetch does; ok is false when the word does not lie inside the region.
// It is Load(addr, 4) small enough to inline into the executor's step.
func (m *Memory) Fetch(addr uint32) (uint32, bool) {
	if !m.Contains(addr, 4) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(m.data[addr-m.base:]), true
}

// LoadWords reads len(dst) consecutive little-endian words from addr on
// into dst; ok is false, and dst left as it was, when any of them lies
// outside the region. Like Load it never allocates.
func (m *Memory) LoadWords(addr uint32, dst []uint32) bool {
	if len(dst) > len(m.data)/4 {
		return false
	}
	b, ok := m.span(addr, uint32(4*len(dst)), false)
	if !ok {
		return false
	}
	for i := range dst {
		dst[i] = binary.LittleEndian.Uint32(b[4*i:])
	}
	return true
}

// Store writes the low 1, 2, 4 or 8 bytes of v little-endian; ok is false
// on an access fault. A doubleword is written as two words, low word
// first, so when only its high word faults the low word stays written.
// Like Load it never allocates.
func (m *Memory) Store(addr, size uint32, v uint64) bool {
	if size == 8 {
		return m.Store(addr, 4, v) && m.Store(addr+4, 4, v>>32)
	}
	b, ok := m.span(addr, size, true)
	if !ok {
		return false
	}
	switch size {
	case 1:
		b[0] = byte(v)
	case 2:
		binary.LittleEndian.PutUint16(b, uint16(v))
	default:
		binary.LittleEndian.PutUint32(b, uint32(v))
	}
	return true
}

func (m *Memory) read(addr, size uint32) (uint64, error) {
	v, ok := m.Load(addr, size)
	if !ok {
		return 0, &AccessError{Addr: addr, Size: size}
	}
	return v, nil
}

func (m *Memory) write(addr, size uint32, v uint64) error {
	if !m.Store(addr, size, v) {
		return &AccessError{Addr: addr, Size: size, Write: true}
	}
	return nil
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint32) (uint8, error) {
	v, err := m.read(addr, 1)
	return uint8(v), err
}

// Read16 loads a little-endian halfword.
func (m *Memory) Read16(addr uint32) (uint16, error) {
	v, err := m.read(addr, 2)
	return uint16(v), err
}

// Read32 loads a little-endian word.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	v, err := m.read(addr, 4)
	return uint32(v), err
}

// Read64 loads a little-endian doubleword.
func (m *Memory) Read64(addr uint32) (uint64, error) { return m.read(addr, 8) }

// Write8 stores one byte.
func (m *Memory) Write8(addr uint32, v uint8) error { return m.write(addr, 1, uint64(v)) }

// Write16 stores a little-endian halfword.
func (m *Memory) Write16(addr uint32, v uint16) error { return m.write(addr, 2, uint64(v)) }

// Write32 stores a little-endian word.
func (m *Memory) Write32(addr uint32, v uint32) error { return m.write(addr, 4, uint64(v)) }

// Write64 stores a little-endian doubleword.
func (m *Memory) Write64(addr uint32, v uint64) error { return m.write(addr, 8, v) }

// LoadImage copies raw bytes into memory at addr. An empty image writes
// nothing, so it leaves every page clean.
func (m *Memory) LoadImage(addr uint32, img []byte) error {
	b, ok := m.span(addr, uint32(len(img)), len(img) > 0)
	if !ok {
		return &AccessError{Addr: addr, Size: uint32(len(img)), Write: true}
	}
	copy(b, img)
	return nil
}

// ReadBytes copies size bytes starting at addr.
func (m *Memory) ReadBytes(addr, size uint32) ([]byte, error) {
	b, ok := m.span(addr, size, false)
	if !ok {
		return nil, &AccessError{Addr: addr, Size: size}
	}
	out := make([]byte, size)
	copy(out, b[:size])
	return out, nil
}

// Snapshot records the current contents as the pristine image and starts
// dirty-page tracking, so subsequent Restore calls are proportional to the
// number of pages actually written (the paper's pre-load optimization).
func (m *Memory) Snapshot() {
	if m.snapshot == nil {
		m.snapshot = make([]byte, len(m.data))
		pages := (len(m.data) + (1 << pageBits) - 1) >> pageBits
		m.dirty = make([]uint64, (pages+63)/64)
	}
	copy(m.snapshot, m.data)
	for i := range m.dirty {
		m.dirty[i] = 0
	}
}

// Restore rolls dirty pages back to the snapshot. It panics if Snapshot was
// never called.
func (m *Memory) Restore() {
	if m.snapshot == nil {
		panic("mem: Restore without Snapshot")
	}
	for wi, word := range m.dirty {
		for word != 0 {
			bit := word & -word
			p := uint32(wi)<<6 + uint32(bits.TrailingZeros64(word))
			off := int(p) << pageBits
			end := off + 1<<pageBits
			if end > len(m.data) {
				end = len(m.data)
			}
			copy(m.data[off:end], m.snapshot[off:end])
			word &^= bit
		}
		m.dirty[wi] = 0
	}
}

// Undo runs f, then puts back every page f wrote, together with the
// dirty-page bitmap, so the memory is as f found it. It copies only the
// pages written since the last Snapshot or Restore (every page before
// the first Snapshot), since the others equal the snapshot.
func (m *Memory) Undo(f func()) {
	dirty := slices.Clone(m.dirty)
	var saved []byte
	for off := 0; off < len(m.data); off += 1 << pageBits {
		if isDirty(dirty, off) {
			saved = append(saved, m.page(off)...)
		}
	}
	f()
	for off := 0; off < len(m.data); off += 1 << pageBits {
		switch {
		case isDirty(dirty, off):
			saved = saved[copy(m.page(off), saved):]
		case isDirty(m.dirty, off):
			copy(m.page(off), m.snapshot[off:])
		}
	}
	copy(m.dirty, dirty)
}

// page returns the bytes of the page at offset off.
func (m *Memory) page(off int) []byte { return m.data[off:min(off+1<<pageBits, len(m.data))] }

// isDirty reports whether bitmap marks the page at offset off; with no
// bitmap (no snapshot) every page counts as written.
func isDirty(bitmap []uint64, off int) bool {
	p := off >> pageBits
	return bitmap == nil || bitmap[p>>6]&(1<<(p&63)) != 0
}

// Pristine reports whether the size bytes at addr still equal the
// snapshot (false before the first Snapshot or outside the region). It
// compares only the pages written since the last Snapshot or Restore.
func (m *Memory) Pristine(addr, size uint32) bool {
	if m.snapshot == nil || !m.Contains(addr, size) {
		return false
	}
	if size == 0 {
		return true
	}
	lo := int(addr - m.base)
	hi := lo + int(size)
	for p := lo >> pageBits; p <= (hi-1)>>pageBits; p++ {
		if m.dirty[p>>6]&(1<<(p&63)) == 0 {
			continue
		}
		a, b := max(lo, p<<pageBits), min(hi, (p+1)<<pageBits)
		if !bytes.Equal(m.data[a:b], m.snapshot[a:b]) {
			return false
		}
	}
	return true
}

// Dirty reports whether anything was written since the last Snapshot or
// Restore (always false before the first Snapshot).
func (m *Memory) Dirty() bool {
	for _, w := range m.dirty {
		if w != 0 {
			return true
		}
	}
	return false
}
