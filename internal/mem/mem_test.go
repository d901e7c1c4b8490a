package mem

import (
	"math/rand"
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

// TestDirty: reads never dirty the memory, any write after Snapshot
// does, and Restore and Snapshot both clear it.
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

func TestClone(t *testing.T) {
	m := New(0, 0x1000)
	_ = m.Write32(0, 42)
	m.Snapshot()
	c := m.Clone()
	_ = c.Write32(0, 99)
	if v, _ := m.Read32(0); v != 42 {
		t.Error("clone shares storage")
	}
	c.Restore()
	if v, _ := c.Read32(0); v != 42 {
		t.Error("clone snapshot broken")
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
