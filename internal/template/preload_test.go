package template

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"unsafe"

	"rvnegtest/internal/asm"
	"rvnegtest/internal/elf"
	"rvnegtest/internal/exec"
	"rvnegtest/internal/isa"
	"rvnegtest/internal/mem"
)

// preloadAssembled is the reference Preload is checked against: it
// assembles the empty template on p and loads the program into a fresh
// memory, without the memo.
func preloadAssembled(t *testing.T, p Platform) *Image {
	t.Helper()
	src, err := SourceFamily(nil, p.Layout, p.Family)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble(src, asm.Options{
		TextBase: p.Layout.TextBase,
		DataBase: p.Layout.DataBase,
		Defines:  p.Defines(),
	})
	if err != nil {
		t.Fatal(err)
	}
	inject, ok1 := prog.Symbol("body_begin")
	exit, ok2 := prog.Symbol("dump")
	if !ok1 || !ok2 {
		t.Fatal("template symbols missing")
	}
	m := mem.New(p.Layout.MemBase, p.Layout.MemSize)
	entry, err := elf.FromProgram(prog).LoadInto(m)
	if err != nil {
		t.Fatal(err)
	}
	m.Snapshot()
	return &Image{Platform: p, Mem: m, Entry: entry, InjectAddr: inject, ExitAddr: exit}
}

// memoPlatforms are both families on the configurations the experiments
// use, plus the relocated-text layout TestAUIPCLayoutBoundary (filter)
// runs.
func memoPlatforms() []Platform {
	var ps []Platform
	for _, fam := range []Family{FamilyUser, FamilyTrap} {
		for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IMC, isa.RV32GC} {
			ps = append(ps, PlatformFor(fam, cfg))
		}
	}
	moved := DefaultLayout
	moved.TextBase = 0x1000
	return append(ps, Platform{Layout: moved, Cfg: isa.RV32I})
}

// samePreload reports how got differs from want: its memory (contents,
// snapshot and dirty pages), its three addresses or its platform.
func samePreload(got, want *Image) error {
	if !reflect.DeepEqual(got.Mem, want.Mem) {
		return fmt.Errorf("memory differs")
	}
	if got.Entry != want.Entry || got.InjectAddr != want.InjectAddr || got.ExitAddr != want.ExitAddr {
		return fmt.Errorf("addresses %#x/%#x/%#x, want %#x/%#x/%#x",
			got.Entry, got.InjectAddr, got.ExitAddr, want.Entry, want.InjectAddr, want.ExitAddr)
	}
	if got.Platform != want.Platform {
		return fmt.Errorf("platform %+v, want %+v", got.Platform, want.Platform)
	}
	return nil
}

// TestPreloadMatchesAssembly: every Preload, the one that assembles and
// the ones the memo serves, equals a fresh assembly loaded into memory.
func TestPreloadMatchesAssembly(t *testing.T) {
	for _, p := range memoPlatforms() {
		want := preloadAssembled(t, p)
		for call := 0; call < 2; call++ {
			img, err := Preload(p)
			if err != nil {
				t.Fatal(err)
			}
			if err := samePreload(img, want); err != nil {
				t.Errorf("%v/%v text %#x, call %d: %v", p.Family, p.Cfg, p.Layout.TextBase, call, err)
			}
		}
	}
}

// TestPreloadIndependent: what one image's owner writes into its memory,
// directly or by running a test case, reaches neither an image preloaded
// before it nor one preloaded after it.
func TestPreloadIndependent(t *testing.T) {
	for _, p := range []Platform{PlatformFor(FamilyUser, isa.RV32GC), PlatformFor(FamilyTrap, isa.RV32GC)} {
		want := preloadAssembled(t, p)
		a, err := Preload(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Preload(p)
		if err != nil {
			t.Fatal(err)
		}
		// Overwrite a scratch word and the snapshot, then run an input
		// that traps and writes the signature.
		if err := a.Mem.Write32(p.Layout.DataMid, 0xdeadbeef); err != nil {
			t.Fatal(err)
		}
		a.Mem.Snapshot()
		if err := a.Inject(leWords(0xffffffff, 0x00000073)); err != nil {
			t.Fatal(err)
		}
		if err := a.NewExecutorCfg(p.Cfg, isa.Ref, exec.Quirks{}).Run(100000); err != nil {
			t.Fatal(err)
		}
		if !a.Mem.Dirty() {
			t.Fatal("the run wrote nothing")
		}
		c, err := Preload(p)
		if err != nil {
			t.Fatal(err)
		}
		for name, img := range map[string]*Image{"earlier": b, "later": c} {
			if err := samePreload(img, want); err != nil {
				t.Errorf("%v/%v: %s image: %v", p.Family, p.Cfg, name, err)
			}
		}
	}
}

// TestPreloadConcurrent: goroutines that preload the same and different
// platforms at once, starting from an empty memo, all get images equal to
// a fresh assembly (CI runs it ten times under -race).
func TestPreloadConcurrent(t *testing.T) {
	ps := memoPlatforms()
	want := make([]*Image, len(ps))
	for i, p := range ps {
		want[i] = preloadAssembled(t, p)
	}
	preassemblies.Range(func(k, _ any) bool {
		preassemblies.Delete(k)
		return true
	})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range ps {
				i := (g + k) % len(ps)
				img, err := Preload(ps[i])
				if err != nil {
					t.Error(err)
					return
				}
				if err := samePreload(img, want[i]); err != nil {
					t.Errorf("goroutine %d, %v/%v: %v", g, ps[i].Family, ps[i].Cfg, err)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPreloadMemoSize bounds what the memo keeps for a default-layout
// platform: the non-zero bytes of its 32 KiB image (5.2-5.4 KB) with the
// runs' bookkeeping, at most 8 KiB. A live-heap sample taken while no
// simulator is alive still holds the memo.
func TestPreloadMemoSize(t *testing.T) {
	for _, fam := range []Family{FamilyUser, FamilyTrap} {
		for _, cfg := range []isa.Config{isa.RV32I, isa.RV32IC, isa.RV32IM, isa.RV32IMC, isa.RV32GC} {
			a, err := assembled(PlatformFor(fam, cfg))
			if err != nil {
				t.Fatal(err)
			}
			n := int(unsafe.Sizeof(*a)) + len(a.runs)*int(unsafe.Sizeof(byteRun{}))
			for _, r := range a.runs {
				n += cap(r.data)
			}
			if n > 8<<10 {
				t.Errorf("%v/%v: the memo keeps %d bytes in %d runs, want at most 8 KiB", fam, cfg, n, len(a.runs))
			}
		}
	}
}

// TestInjectMatchesWordStores: Inject leaves the memory, its snapshot and
// its dirty pages exactly as storing the input word by word, the last
// partial word zero-padded, does, at every input length.
func TestInjectMatchesWordStores(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, p := range []Platform{PlatformFor(FamilyUser, isa.RV32GC), PlatformFor(FamilyTrap, isa.RV32I)} {
		a, err := Preload(p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Preload(p)
		if err != nil {
			t.Fatal(err)
		}
		bs := make([]byte, p.Layout.MaxBytes())
		for n := 0; n <= len(bs); n++ {
			for i := range bs {
				bs[i] = byte(1 + rng.Intn(255))
			}
			if err := a.Inject(bs[:n]); err != nil {
				t.Fatal(err)
			}
			b.Mem.Restore()
			for i := 0; i < n; i += 4 {
				var w uint32
				for j := i; j < i+4 && j < n; j++ {
					w |= uint32(bs[j]) << (8 * (j - i))
				}
				if err := b.Mem.Write32(b.InjectAddr+uint32(i), w); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(a.Mem, b.Mem) {
				t.Fatalf("%v/%v: %d bytes: Inject's memory differs from word stores", p.Family, p.Cfg, n)
			}
		}
	}
}
