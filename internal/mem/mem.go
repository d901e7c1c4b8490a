// Package mem provides the little-endian physical memory used by the
// instruction-set simulators: a single contiguous region (32 KiB in the
// paper's setup) with typed accessors, access-fault reporting and a fast
// snapshot/restore mechanism so a pre-loaded test-case template can be
// reset between fuzzer executions without re-copying the whole image.
package mem

import (
	"fmt"
	"math/bits"
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

func (m *Memory) check(addr, size uint32, write bool) ([]byte, error) {
	if !m.Contains(addr, size) {
		return nil, &AccessError{Addr: addr, Size: size, Write: write}
	}
	off := addr - m.base
	if write && m.dirty != nil {
		for p := off >> pageBits; p <= (off+size-1)>>pageBits; p++ {
			m.dirty[p>>6] |= 1 << (p & 63)
		}
	}
	return m.data[off:], nil
}

// Read8 loads one byte.
func (m *Memory) Read8(addr uint32) (uint8, error) {
	b, err := m.check(addr, 1, false)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// Read16 loads a little-endian halfword.
func (m *Memory) Read16(addr uint32) (uint16, error) {
	b, err := m.check(addr, 2, false)
	if err != nil {
		return 0, err
	}
	return uint16(b[0]) | uint16(b[1])<<8, nil
}

// Read32 loads a little-endian word.
func (m *Memory) Read32(addr uint32) (uint32, error) {
	b, err := m.check(addr, 4, false)
	if err != nil {
		return 0, err
	}
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24, nil
}

// Read64 loads a little-endian doubleword.
func (m *Memory) Read64(addr uint32) (uint64, error) {
	lo, err := m.Read32(addr)
	if err != nil {
		return 0, err
	}
	hi, err := m.Read32(addr + 4)
	if err != nil {
		return 0, err
	}
	return uint64(hi)<<32 | uint64(lo), nil
}

// Write8 stores one byte.
func (m *Memory) Write8(addr uint32, v uint8) error {
	b, err := m.check(addr, 1, true)
	if err != nil {
		return err
	}
	b[0] = v
	return nil
}

// Write16 stores a little-endian halfword.
func (m *Memory) Write16(addr uint32, v uint16) error {
	b, err := m.check(addr, 2, true)
	if err != nil {
		return err
	}
	b[0], b[1] = byte(v), byte(v>>8)
	return nil
}

// Write32 stores a little-endian word.
func (m *Memory) Write32(addr uint32, v uint32) error {
	b, err := m.check(addr, 4, true)
	if err != nil {
		return err
	}
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	return nil
}

// Write64 stores a little-endian doubleword.
func (m *Memory) Write64(addr uint32, v uint64) error {
	if err := m.Write32(addr, uint32(v)); err != nil {
		return err
	}
	return m.Write32(addr+4, uint32(v>>32))
}

// LoadImage copies raw bytes into memory at addr.
func (m *Memory) LoadImage(addr uint32, img []byte) error {
	b, err := m.check(addr, uint32(len(img)), true)
	if err != nil {
		return err
	}
	copy(b, img)
	return nil
}

// ReadBytes copies size bytes starting at addr.
func (m *Memory) ReadBytes(addr, size uint32) ([]byte, error) {
	b, err := m.check(addr, size, false)
	if err != nil {
		return nil, err
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

// Clone returns an independent deep copy (snapshot state included).
func (m *Memory) Clone() *Memory {
	c := &Memory{base: m.base, data: append([]byte(nil), m.data...)}
	if m.snapshot != nil {
		c.snapshot = append([]byte(nil), m.snapshot...)
		c.dirty = append([]uint64(nil), m.dirty...)
	}
	return c
}
