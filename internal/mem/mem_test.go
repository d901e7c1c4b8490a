package mem

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestReadWriteRoundtrip(t *testing.T) {
	m := New(0x1000, 0x1000)
	f := func(off uint16, v uint32) bool {
		addr := 0x1000 + uint32(off)&0xffc
		if err := m.Write32(addr, v); err != nil {
			return false
		}
		got, err := m.Read32(addr)
		return err == nil && got == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestLittleEndian(t *testing.T) {
	m := New(0, 64)
	if err := m.Write32(0, 0x04030201); err != nil {
		t.Fatal(err)
	}
	for i := uint32(0); i < 4; i++ {
		b, err := m.Read8(i)
		if err != nil || b != uint8(i+1) {
			t.Errorf("byte %d = %d, %v", i, b, err)
		}
	}
	h, _ := m.Read16(2)
	if h != 0x0403 {
		t.Errorf("read16 = %#x", h)
	}
	if err := m.Write64(8, 0x1122334455667788); err != nil {
		t.Fatal(err)
	}
	v, _ := m.Read64(8)
	if v != 0x1122334455667788 {
		t.Errorf("read64 = %#x", v)
	}
	lo, _ := m.Read32(8)
	if lo != 0x55667788 {
		t.Errorf("low word = %#x", lo)
	}
}

func TestBounds(t *testing.T) {
	m := New(0x1000, 0x100)
	cases := []struct {
		addr uint32
		size uint32
	}{
		{0xfff, 1}, {0x10ff, 2}, {0x1100, 1}, {0x10fd, 4},
		{0xffffffff, 4}, {0, 4},
	}
	for _, c := range cases {
		if m.Contains(c.addr, c.size) {
			t.Errorf("Contains(%#x, %d) = true", c.addr, c.size)
		}
	}
	if !m.Contains(0x1000, 4) || !m.Contains(0x10fc, 4) || !m.Contains(0x10ff, 1) {
		t.Error("valid ranges rejected")
	}
	if _, err := m.Read32(0xfff); err == nil {
		t.Error("read below base must fail")
	}
	var ae *AccessError
	if err := m.Write32(0x1100, 1); err == nil {
		t.Error("write past end must fail")
	} else if ae, _ = err.(*AccessError); ae == nil || !ae.Write {
		t.Errorf("error type: %v", err)
	}
	if ae.Error() == "" {
		t.Error("empty error string")
	}
}

// TestFetch: Fetch agrees with Load(addr, 4) at every alignment inside
// the region, up to its last word, and fails where the word crosses the
// end, starts past it or lies below the base.
func TestFetch(t *testing.T) {
	m := New(0x1000, 0x100)
	for i := uint32(0); i < 0x100; i++ {
		if err := m.Write8(0x1000+i, uint8(i)); err != nil {
			t.Fatal(err)
		}
	}
	for _, addr := range []uint32{0xffc, 0xffe, 0x1000, 0x1001, 0x1002, 0x10fc, 0x10fd, 0x10fe, 0x1100, 0xfffffffe} {
		got, ok := m.Fetch(addr)
		want, wantOK := m.Load(addr, 4)
		if got != uint32(want) || ok != wantOK {
			t.Errorf("Fetch(%#x) = %#x, %v; Load = %#x, %v", addr, got, ok, want, wantOK)
		}
		if ok != (addr >= 0x1000 && addr <= 0x10fc) {
			t.Errorf("Fetch(%#x) ok = %v", addr, ok)
		}
	}
}

func TestLoadWords(t *testing.T) {
	m := New(0x1000, 0x100)
	for i := uint32(0); i < 0x100; i++ {
		if err := m.Write8(0x1000+i, uint8(i)); err != nil {
			t.Fatal(err)
		}
	}
	dst := make([]uint32, 3)
	if !m.LoadWords(0x1002, dst) {
		t.Fatal("in-range read failed")
	}
	if want := []uint32{0x05040302, 0x09080706, 0x0d0c0b0a}; !slices.Equal(dst, want) {
		t.Errorf("LoadWords = %#x, want %#x", dst, want)
	}
	if !m.LoadWords(0x10f4, dst) || dst[2] != 0xfffefdfc {
		t.Errorf("read up to the end = %#x", dst)
	}
	// Reads crossing the end, starting past it or below the base fail
	// and leave dst as it was.
	for _, addr := range []uint32{0x10f6, 0x10fc, 0x1100, 0xffc, 0xfffffffc} {
		dst := []uint32{1, 2, 3}
		if m.LoadWords(addr, dst) || !slices.Equal(dst, []uint32{1, 2, 3}) {
			t.Errorf("LoadWords(%#x) = true or wrote %#x", addr, dst)
		}
	}
	if m.LoadWords(0x1000, make([]uint32, 0x41)) {
		t.Error("a read longer than the region succeeded")
	}
	if !m.LoadWords(0x1000, nil) || !m.LoadWords(0x1100, []uint32{}) {
		t.Error("zero-length read failed")
	}
}

func TestSnapshotRestore(t *testing.T) {
	m := New(0, 0x8000)
	_ = m.Write32(0x100, 0xaaaaaaaa)
	m.Snapshot()
	_ = m.Write32(0x100, 0xbbbbbbbb)
	_ = m.Write32(0x7ffc, 0xcccccccc)
	_ = m.Write8(0x4000, 0xdd)
	m.Restore()
	if v, _ := m.Read32(0x100); v != 0xaaaaaaaa {
		t.Errorf("restored = %#x", v)
	}
	if v, _ := m.Read32(0x7ffc); v != 0 {
		t.Errorf("restored tail = %#x", v)
	}
	if v, _ := m.Read8(0x4000); v != 0 {
		t.Errorf("restored middle = %#x", v)
	}
	// Repeated restore cycles stay consistent.
	for i := 0; i < 10; i++ {
		_ = m.Write32(uint32(i*256), uint32(i))
		m.Restore()
	}
	if v, _ := m.Read32(0x100); v != 0xaaaaaaaa {
		t.Error("snapshot decayed after repeated restores")
	}
}

// TestDirty: reads and empty writes never dirty the memory, any other
// write after Snapshot does, and Restore and Snapshot both clear it.
func TestDirty(t *testing.T) {
	m := New(0, 0x8000)
	_ = m.Write32(0x100, 1)
	if m.Dirty() {
		t.Fatal("dirty before the first Snapshot")
	}
	m.Snapshot()
	_, _ = m.Read32(0x100)
	if m.Dirty() {
		t.Fatal("a read dirtied the memory")
	}
	for _, addr := range []uint32{0, 0x180, 0x8000} {
		if err := m.LoadImage(addr, nil); err != nil || m.Dirty() {
			t.Fatalf("an empty LoadImage at %#x: err %v, dirty %v", addr, err, m.Dirty())
		}
	}
	_ = m.Write8(0x7fff, 2)
	if !m.Dirty() {
		t.Fatal("a write left the memory clean")
	}
	m.Restore()
	if m.Dirty() {
		t.Fatal("dirty after Restore")
	}
	_ = m.Write32(0, 3)
	m.Snapshot()
	if m.Dirty() {
		t.Fatal("dirty after Snapshot")
	}
}

// TestPristine checks Pristine against a plain compare of the range
// with a copy of the snapshot: it reads only the pages written since the
// last Restore, so a page rewritten with its own bytes is still
// pristine, and a range is pristine up to the first changed byte it
// holds, on a clean page or a dirty one.
func TestPristine(t *testing.T) {
	const base = 0x1000
	m := New(base, 0x1000)
	if m.Pristine(base, 4) {
		t.Error("pristine before the first Snapshot")
	}
	rng := rand.New(rand.NewSource(3))
	img := make([]byte, 0x1000)
	rng.Read(img)
	_ = m.LoadImage(base, img)
	m.Snapshot()
	plain := func(addr, size uint32) bool {
		if !m.Contains(addr, size) {
			return false
		}
		got, _ := m.ReadBytes(addr, size)
		return bytes.Equal(got, img[addr-base:addr-base+size])
	}
	flip := func(addr uint32) {
		v, _ := m.Read8(addr)
		_ = m.Write8(addr, ^v)
	}
	same := func(addr uint32) {
		v, _ := m.Read32(addr)
		_ = m.Write32(addr, v)
	}
	for _, tc := range []struct {
		name       string
		write      func()
		addr, size uint32
		want       bool
	}{
		{"clean range", nil, 0x1100, 0x200, true},
		{"whole memory, clean", nil, base, 0x1000, true},
		{"page rewritten with its own bytes", func() { same(0x1204) }, 0x1200, 0x100, true},
		{"one changed byte", func() { flip(0x1205) }, 0x1200, 0x100, false},
		{"dirty page, changed byte outside the range", func() { flip(0x1205) }, 0x1210, 0x20, true},
		{"whole memory, one changed byte", func() { flip(0x1fff) }, base, 0x1000, false},
		{"clean page and changed dirty page", func() { flip(0x1301) }, 0x12f0, 0x20, false},
		{"clean page and dirty page, change outside", func() { flip(0x1305) }, 0x12f0, 0x14, true},
		{"size 0 at the base", func() { flip(base) }, base, 0, true},
		{"size 0 at the end", func() { flip(0x1fff) }, 0x2000, 0, true},
		{"out of range below", nil, base - 0x10, 0x20, false},
		{"out of range above", nil, 0x1ff0, 0x20, false},
		{"out of range, wrapping", nil, 0xfffffff0, 0x20, false},
	} {
		m.Restore()
		if tc.write != nil {
			tc.write()
		}
		if got, ref := m.Pristine(tc.addr, tc.size), plain(tc.addr, tc.size); got != tc.want || ref != tc.want {
			t.Errorf("%s: Pristine %v, plain compare %v, want %v", tc.name, got, ref, tc.want)
		}
	}
}

// TestRestoreEquivalentToFullCopy drives random write/restore cycles and
// checks dirty-page restore matches a full-image restore.
func TestRestoreEquivalentToFullCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(0, 0x2000)
	ref := make([]byte, 0x2000)
	for i := range ref {
		ref[i] = byte(rng.Intn(256))
	}
	_ = m.LoadImage(0, ref)
	m.Snapshot()
	for round := 0; round < 50; round++ {
		for w := 0; w < 30; w++ {
			addr := uint32(rng.Intn(0x2000 - 8))
			switch rng.Intn(4) {
			case 0:
				_ = m.Write8(addr, uint8(rng.Intn(256)))
			case 1:
				_ = m.Write16(addr, uint16(rng.Intn(65536)))
			case 2:
				_ = m.Write32(addr, rng.Uint32())
			default:
				_ = m.Write64(addr, rng.Uint64())
			}
		}
		m.Restore()
		got, _ := m.ReadBytes(0, 0x2000)
		for i := range got {
			if got[i] != ref[i] {
				t.Fatalf("round %d: byte %#x = %#x, want %#x", round, i, got[i], ref[i])
			}
		}
	}
}

func TestLoadImageAndReadBytes(t *testing.T) {
	m := New(0x100, 0x100)
	img := []byte{1, 2, 3, 4, 5}
	if err := m.LoadImage(0x110, img); err != nil {
		t.Fatal(err)
	}
	got, err := m.ReadBytes(0x110, 5)
	if err != nil || string(got) != string(img) {
		t.Errorf("ReadBytes = %v, %v", got, err)
	}
	if err := m.LoadImage(0x1fe, img); err == nil {
		t.Error("LoadImage past end must fail")
	}
}

func TestRestoreWithoutSnapshotPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	New(0, 64).Restore()
}
