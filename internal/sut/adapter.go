package sut

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"time"

	"rvnegtest/internal/resilience"
)

// Spec describes how to launch and supervise one external SUT adapter
// process.
type Spec struct {
	// Name is the column name in the report; it must not be empty.
	Name string
	// Argv is the adapter command line (Argv[0] is the binary).
	Argv []string
	// Env appends to the inherited environment.
	Env []string
	// HandshakeTimeout bounds spawn-to-HELLO_OK; zero means 5s.
	HandshakeTimeout time.Duration
	// RunTimeout is the per-run wall-clock watchdog; zero means 10s. A
	// run that produces no response frame within it is declared wedged
	// and the process is killed.
	RunTimeout time.Duration
	// Retries is the number of kill-and-restart retries after a failed
	// run attempt (so Retries+1 attempts total); zero means 2. Negative
	// disables retries.
	Retries int
	// BackoffBase/BackoffMax shape the jittered exponential delay slept
	// between restarts; zeros select the resilience defaults.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed seeds the backoff jitter RNG, keeping restart delays
	// deterministic per campaign.
	Seed int64
	// StderrTail bounds the retained adapter stderr (bytes); zero means
	// 4096. The tail rides along in Fault details for triage.
	StderrTail int
}

func (s *Spec) handshakeTimeout() time.Duration {
	if s.HandshakeTimeout > 0 {
		return s.HandshakeTimeout
	}
	return 5 * time.Second
}

func (s *Spec) runTimeout() time.Duration {
	if s.RunTimeout > 0 {
		return s.RunTimeout
	}
	return 10 * time.Second
}

func (s *Spec) retries() int {
	switch {
	case s.Retries < 0:
		return 0
	case s.Retries == 0:
		return 2
	}
	return s.Retries
}

func (s *Spec) stderrTail() int {
	if s.StderrTail > 0 {
		return s.StderrTail
	}
	return 4096
}

// Fault is one adapter-level failure: the protocol exchange broke (wedge,
// crash, garbage, truncation, refusal), as opposed to a modeled
// crash/timeout the adapter reported in a FAULT frame. Adapter faults are
// infrastructure failures — the harness heals them by restart and, when
// they persist, skips the SUT's remaining work instead of polluting the
// findings.
type Fault struct {
	// Reason describes what broke ("run watchdog: no response within..",
	// "read: unexpected EOF", ..).
	Reason string
	// LastFrame names the last response frame received from the process
	// before the failure ("none" when it never answered).
	LastFrame string
	// StderrTail is the bounded tail of the adapter's stderr.
	StderrTail string
	// Permanent marks refusals that a restart cannot heal (an ERR frame:
	// the adapter is alive and deliberately rejected the request), so the
	// retry loop stops immediately.
	Permanent bool
}

// Detail renders the fault with its protocol context for quarantine
// records and report fault lines.
func (f *Fault) Detail() string {
	var b strings.Builder
	b.WriteString(f.Reason)
	fmt.Fprintf(&b, " (last frame: %s)", f.LastFrame)
	if f.StderrTail != "" {
		fmt.Fprintf(&b, "\nadapter stderr tail:\n%s", f.StderrTail)
	}
	return b.String()
}

// tailBuffer retains the last cap bytes written. The exec package writes
// from its own copier goroutine while the harness reads after failures,
// hence the lock.
type tailBuffer struct {
	mu  sync.Mutex
	cap int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.cap {
		t.buf = append(t.buf[:0], t.buf[len(t.buf)-t.cap:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}

// frameMsg is one response frame (or read failure) from the reader
// goroutine.
type frameMsg struct {
	typ     byte
	payload []byte
	err     error
}

// proc is one live adapter process: the command, its stdin, and a reader
// goroutine that turns stdout into a frame channel so response waits can
// carry a deadline (pipes have no portable read deadline; the watchdog
// selects on the channel and kills the process, which unblocks the
// reader via EOF).
type proc struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	frames chan frameMsg
	quit   chan struct{}
	stderr *tailBuffer
}

// Adapter supervises one external SUT process for one harness worker:
// spawn, handshake, per-run watchdog, kill-and-restart with jittered
// exponential backoff, bounded retries per run. Not safe for concurrent
// use — the engine gives each worker its own Adapter, mirroring the
// per-worker simulator instances.
type Adapter struct {
	Spec Spec
	// OnRestart, when non-nil, observes every process (re)spawn after the
	// first.
	OnRestart func()
	// OnRetry, when non-nil, observes every re-attempted run.
	OnRetry func()

	p          *proc
	info       Info
	handshook  bool
	backoff    *resilience.Backoff
	lastFrame  string
	lastStderr string
	spawns     int
}

// NewAdapter builds an unstarted adapter; the first Run (or Probe's
// handshake) spawns the process.
func NewAdapter(spec Spec) *Adapter {
	return &Adapter{
		Spec:      spec,
		backoff:   resilience.NewBackoff(spec.BackoffBase, spec.BackoffMax, spec.Seed),
		lastFrame: "none",
	}
}

// spawn starts the adapter process and its reader goroutine.
func (a *Adapter) spawn() error {
	cmd := exec.Command(a.Spec.Argv[0], a.Spec.Argv[1:]...)
	cmd.Env = append(cmd.Environ(), a.Spec.Env...)
	tail := &tailBuffer{cap: a.Spec.stderrTail()}
	cmd.Stderr = tail
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return err
	}
	p := &proc{
		cmd:    cmd,
		stdin:  stdin,
		frames: make(chan frameMsg),
		quit:   make(chan struct{}),
		stderr: tail,
	}
	go func() {
		br := bufio.NewReader(stdout)
		for {
			typ, payload, err := ReadFrame(br)
			select {
			case p.frames <- frameMsg{typ, payload, err}:
			case <-p.quit:
				return
			}
			if err != nil {
				return
			}
		}
	}()
	a.p = p
	a.handshook = false
	a.lastFrame = "none"
	a.spawns++
	if a.spawns > 1 && a.OnRestart != nil {
		a.OnRestart()
	}
	return nil
}

// kill tears the process down (reader goroutine included) and reaps it.
func (a *Adapter) kill() {
	p := a.p
	if p == nil {
		return
	}
	a.p = nil
	a.handshook = false
	close(p.quit)
	p.stdin.Close()
	if p.cmd.Process != nil {
		_ = p.cmd.Process.Kill()
	}
	_ = p.cmd.Wait()
	// Wait reaped the exec package's stderr copier, so the tail is now
	// complete; snapshot it for the fault being reported.
	a.lastStderr = p.stderr.String()
}

// failStop tears the process down and completes the fault with the
// post-mortem stderr tail (only final after the process is reaped).
func (a *Adapter) failStop(f *Fault) *Fault {
	a.kill()
	f.StderrTail = a.lastStderr
	return f
}

// stderrTail returns the bounded stderr of the current (or just-killed)
// process.
func (a *Adapter) stderrTail() string {
	if a.p == nil {
		return ""
	}
	return a.p.stderr.String()
}

// await waits for the next response frame with a wall-clock deadline.
func (a *Adapter) await(d time.Duration, what string) (byte, []byte, *Fault) {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case m := <-a.p.frames:
		if m.err != nil {
			reason := fmt.Sprintf("%s: read: %v", what, m.err)
			if m.err == io.EOF {
				reason = fmt.Sprintf("%s: adapter exited (EOF)", what)
			}
			return 0, nil, a.fault(reason)
		}
		a.lastFrame = frameName(m.typ)
		return m.typ, m.payload, nil
	case <-timer.C:
		return 0, nil, a.fault(fmt.Sprintf("%s watchdog: no response within %v", what, d))
	}
}

// fault snapshots the protocol context into a Fault.
func (a *Adapter) fault(reason string) *Fault {
	return &Fault{Reason: reason, LastFrame: a.lastFrame, StderrTail: a.stderrTail()}
}

// ensure makes sure a handshaken process is up.
func (a *Adapter) ensure() *Fault {
	if a.p != nil && a.handshook {
		return nil
	}
	if a.p == nil {
		if err := a.spawn(); err != nil {
			return a.fault(fmt.Sprintf("spawn %s: %v", a.Spec.Argv[0], err))
		}
	}
	if err := a.send(FrameHello, encodeHello()); err != nil {
		return a.failStop(a.fault(fmt.Sprintf("handshake: write: %v", err)))
	}
	typ, payload, f := a.await(a.Spec.handshakeTimeout(), "handshake")
	if f != nil {
		return a.failStop(f)
	}
	switch typ {
	case FrameHelloOK:
		info, err := decodeHelloOK(payload)
		if err != nil {
			return a.failStop(a.fault(fmt.Sprintf("handshake: %v", err)))
		}
		if info.Proto != ProtoVersion {
			f := a.failStop(a.fault(fmt.Sprintf("handshake: adapter speaks protocol %d, harness %d", info.Proto, ProtoVersion)))
			f.Permanent = true
			return f
		}
		a.info = info
		a.handshook = true
		return nil
	case FrameErr:
		msg, _ := decodeErr(payload)
		f := a.failStop(a.fault(fmt.Sprintf("handshake refused: %s", msg)))
		f.Permanent = true
		return f
	default:
		return a.failStop(a.fault(fmt.Sprintf("handshake: unexpected frame %s", frameName(typ))))
	}
}

func (a *Adapter) send(typ byte, payload []byte) error {
	return WriteFrame(a.p.stdin, typ, payload)
}

// Run executes one test case on the external SUT, healing adapter-level
// failures by kill-and-restart with backoff, up to the retry bound. A
// returned Fault means every attempt failed (or the adapter refused the
// request permanently); the result is then meaningless and the caller
// records the case as adapter-skipped.
func (a *Adapter) Run(family byte, config string, code []byte) (RunResult, *Fault) {
	var last *Fault
	attempts := a.Spec.retries() + 1
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			if a.OnRetry != nil {
				a.OnRetry()
			}
			time.Sleep(a.backoff.Next())
		}
		res, f := a.runOnce(family, config, code)
		if f == nil {
			a.backoff.Reset()
			return res, nil
		}
		last = f
		if f.Permanent {
			break
		}
	}
	return RunResult{}, last
}

// runOnce performs one protocol round trip (spawning first if needed).
func (a *Adapter) runOnce(family byte, config string, code []byte) (RunResult, *Fault) {
	if f := a.ensure(); f != nil {
		return RunResult{}, f
	}
	req := RunRequest{Family: family, Config: config, Code: code}
	if err := a.send(FrameRun, encodeRun(req)); err != nil {
		return RunResult{}, a.failStop(a.fault(fmt.Sprintf("run: write: %v", err)))
	}
	typ, payload, f := a.await(a.Spec.runTimeout(), "run")
	if f != nil {
		return RunResult{}, a.failStop(f)
	}
	switch typ {
	case FrameSig:
		res, err := decodeSig(payload)
		if err != nil {
			return RunResult{}, a.failStop(a.fault(fmt.Sprintf("run: %v", err)))
		}
		return res, nil
	case FrameFault:
		res, err := decodeFault(payload)
		if err != nil {
			return RunResult{}, a.failStop(a.fault(fmt.Sprintf("run: %v", err)))
		}
		return res, nil
	case FrameErr:
		// The adapter is alive and deliberately refused this request: a
		// restart cannot change its mind, so don't kill or retry.
		msg, _ := decodeErr(payload)
		f := a.fault(fmt.Sprintf("run refused: %s", msg))
		f.Permanent = true
		return RunResult{}, f
	default:
		return RunResult{}, a.failStop(a.fault(fmt.Sprintf("run: unexpected frame %s", frameName(typ))))
	}
}

// Close shuts the adapter down: an orderly SHUTDOWN frame with a short
// grace period, then a kill. Safe to call on an unstarted or
// already-closed adapter.
func (a *Adapter) Close() {
	if a.p == nil {
		return
	}
	if a.handshook {
		if err := a.send(FrameShutdown, nil); err == nil {
			// The adapter exits on SHUTDOWN, closing its stdout; the
			// reader then delivers EOF. Bound the grace period so a
			// misbehaving adapter cannot stall teardown.
			timer := time.NewTimer(500 * time.Millisecond)
			select {
			case <-a.p.frames:
			case <-timer.C:
			}
			timer.Stop()
		}
	}
	a.kill()
}

// Probe spawns the adapter once, performs the handshake, and shuts it
// down — the engine's capability preflight (which configurations the SUT
// supports, what name it announces).
func Probe(spec Spec) (Info, *Fault) {
	a := NewAdapter(spec)
	defer a.Close()
	if f := a.ensure(); f != nil {
		return Info{}, f
	}
	return a.info, nil
}
