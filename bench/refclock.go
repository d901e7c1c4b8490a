package bench

import (
	"syscall"
	"time"
)

// Reference time. On the shared 2-vCPU VM the baseline comes from, other
// tenants contending for the caches and memory changed the speed of every
// workload by up to a factor of 1.7 within minutes, and the process's CPU
// time grew with its wall time, so neither repeated between two sets of
// runs. The benchmark therefore also times its work in reference seconds:
// it runs probe, a fixed loop that belongs to the benchmark and not to the
// program under test, beside the work, and scales each stretch of wall
// time by how much slower than nominal the probes on either side of it
// ran. A change to the program cannot change the probe, so a real
// speed-up shows in full; interference slows the probe and the work alike
// and largely cancels out. bench/README.md has the calibration that chose
// this probe.

// probeNominal is about the probe's fastest time on the baseline VM, so
// reference seconds read as seconds on that machine when it is quiet.
const probeNominal = 7 * time.Millisecond

// probeArena is the probe's 16 MiB working set, larger than the caches a
// vCPU gets to itself. It is mapped outside the Go heap so that it does not
// move the collector's heap goal, and written once so that no probe pays
// for page faults.
var probeArena = func() []byte {
	b, err := syscall.Mmap(-1, 0, 16<<20, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic("bench: mapping the probe arena: " + err.Error())
	}
	for i := range b {
		b[i] = 1
	}
	return b
}()

// probeLine is what the probe writes, one cache line at a time, and
// probeCursor where the next write goes.
var (
	probeLine   [64]byte
	probeCursor int
)

// probe streams 600,000 cache-line writes through probeArena, as
// allocation streams through fresh memory, and returns the time it took.
// Of the loops tried (arithmetic, dependent loads over 256 KiB, 1 MiB and
// 4 MiB, allocation churn, streaming writes), its time followed the
// workloads' most closely while keeping out of the Go heap.
func probe() time.Duration {
	t0 := time.Now()
	for i := 0; i < 600_000; i++ {
		probeLine[0] = byte(i)
		copy(probeArena[probeCursor:probeCursor+64], probeLine[:])
		probeCursor = (probeCursor + 64) % len(probeArena)
	}
	return time.Since(t0)
}

// refScale converts wall seconds between two probes to reference seconds.
func refScale(before, after time.Duration) float64 {
	return 2 * probeNominal.Seconds() / (before + after).Seconds()
}

// refClock times one repetition in wall and in reference seconds. The
// repetition is split into laps with a probe between consecutive laps;
// probe time counts in neither total.
type refClock struct {
	wall time.Duration
	ref  float64
	// start and probed are the current lap's start and the probe just
	// before it.
	start  time.Time
	probed time.Duration
}

func startClock() *refClock {
	c := &refClock{probed: probe()}
	c.start = time.Now()
	return c
}

// lap ends the current lap, probes and starts the next one.
func (c *refClock) lap() {
	d := time.Since(c.start)
	p := probe()
	c.wall += d
	c.ref += d.Seconds() * refScale(c.probed, p)
	c.probed = p
	c.start = time.Now()
}

// lapAfter ends the current lap if it has run for at least d, so that
// frequent lap points do not make the probes a large share of the time.
func (c *refClock) lapAfter(d time.Duration) {
	if time.Since(c.start) >= d {
		c.lap()
	}
}
