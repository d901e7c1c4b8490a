package sut

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"syscall"
	"time"
)

// Handler implements the target side of the adapter protocol: identity
// for the handshake plus one test-case execution per RUN frame. A
// returned error becomes an ERR frame — an adapter-level refusal (e.g.
// unsupported configuration), never a modeled finding; modeled
// crash/timeout verdicts travel inside RunResult.
type Handler interface {
	Info() Info
	Run(req RunRequest) (RunResult, error)
}

// Misbehave selects a deliberate protocol violation for the reference
// adapter's fault-injection mode — the subprocess counterpart of
// sim.Faulty, so every isolation path of the harness (watchdog kill,
// restart loop, garbage rejection, truncation handling) can be exercised
// end to end against a process that actually misbehaves.
type Misbehave string

const (
	// MisbehaveNone serves the protocol faithfully.
	MisbehaveNone Misbehave = ""
	// MisbehaveHang never answers the RUN frame (wedge; only the
	// harness's wall-clock watchdog can recover).
	MisbehaveHang Misbehave = "hang"
	// MisbehaveCrash exits with a nonzero status instead of answering.
	MisbehaveCrash Misbehave = "crash"
	// MisbehaveKill SIGKILLs itself instead of answering — exactly what
	// an operator's `kill -9` mid-campaign looks like to the harness.
	MisbehaveKill Misbehave = "kill"
	// MisbehaveGarbage writes bytes that parse as no frame.
	MisbehaveGarbage Misbehave = "garbage"
	// MisbehaveTruncate writes a SIG frame header whose payload is cut
	// short, then exits.
	MisbehaveTruncate Misbehave = "truncate"
)

// ParseMisbehave validates a mode name from a CLI flag.
func ParseMisbehave(s string) (Misbehave, error) {
	switch m := Misbehave(s); m {
	case MisbehaveNone, MisbehaveHang, MisbehaveCrash, MisbehaveKill, MisbehaveGarbage, MisbehaveTruncate:
		return m, nil
	}
	return MisbehaveNone, fmt.Errorf("sut: unknown misbehave mode %q (hang|crash|kill|garbage|truncate)", s)
}

// ServeOpts configures the serve loop's fault-injection mode.
type ServeOpts struct {
	// Misbehave selects the violation; MisbehaveNone serves faithfully.
	Misbehave Misbehave
	// After is the 0-based RUN index (within this process) at which the
	// misbehaviour starts; earlier runs are served faithfully. A fresh
	// process restarts the count — a restarted adapter with After > 0
	// heals until it reaches the threshold again.
	After int
}

// Serve speaks the adapter side of the protocol over (r, w) until a
// SHUTDOWN frame, EOF (harness hung up), or a protocol violation by the
// peer. Run requests are dispatched to h one at a time; the loop is
// strictly sequential, matching the harness's one-request-in-flight
// discipline.
func Serve(r io.Reader, w io.Writer, h Handler, opts ServeOpts) error {
	br := bufio.NewReader(r)
	bw := bufio.NewWriter(w)
	runs := 0
	for {
		typ, payload, err := ReadFrame(br)
		if err != nil {
			if err == io.EOF {
				return nil // harness closed our stdin: orderly exit
			}
			return err
		}
		switch typ {
		case FrameHello:
			version, err := decodeHello(payload)
			if err != nil {
				return respondFlush(bw, FrameErr, encodeErr(err.Error()))
			}
			if version != ProtoVersion {
				// Reply in-protocol so the harness can print a precise
				// version-mismatch error instead of "garbage".
				if err := respondFlush(bw, FrameErr, encodeErr(fmt.Sprintf("unsupported protocol version %d (adapter speaks %d)", version, ProtoVersion))); err != nil {
					return err
				}
				return fmt.Errorf("sut: handshake version mismatch (peer %d)", version)
			}
			info := h.Info()
			info.Proto = ProtoVersion
			if err := respondFlush(bw, FrameHelloOK, encodeHelloOK(info)); err != nil {
				return err
			}
		case FramePing:
			if err := respondFlush(bw, FramePong, nil); err != nil {
				return err
			}
		case FrameShutdown:
			return nil
		case FrameRun:
			idx := runs
			runs++
			if opts.Misbehave != MisbehaveNone && idx >= opts.After {
				if err := misbehave(bw, opts.Misbehave); err != nil {
					return err
				}
				continue
			}
			req, err := decodeRun(payload)
			if err != nil {
				return respondFlush(bw, FrameErr, encodeErr(err.Error()))
			}
			res, err := h.Run(req)
			switch {
			case err != nil:
				err = respondFlush(bw, FrameErr, encodeErr(err.Error()))
			case res.Crashed || res.TimedOut:
				err = respondFlush(bw, FrameFault, encodeFault(res))
			default:
				err = respondFlush(bw, FrameSig, encodeSig(res))
			}
			if err != nil {
				return err
			}
		default:
			if err := respondFlush(bw, FrameErr, encodeErr(fmt.Sprintf("unexpected frame %s", frameName(typ)))); err != nil {
				return err
			}
			return protoErrf("unexpected frame %s from harness", frameName(typ))
		}
	}
}

func respondFlush(bw *bufio.Writer, typ byte, payload []byte) error {
	if err := WriteFrame(bw, typ, payload); err != nil {
		return err
	}
	return bw.Flush()
}

// misbehave performs the selected protocol violation in place of a RUN
// response. Some modes do not return.
func misbehave(bw *bufio.Writer, m Misbehave) error {
	switch m {
	case MisbehaveHang:
		// Wedge until the harness kills us. The pending timer keeps the
		// runtime's deadlock detector from ending a process that has no
		// other goroutine, which would turn the wedge into a crash.
		for {
			time.Sleep(time.Hour)
		}
	case MisbehaveCrash:
		os.Exit(3)
	case MisbehaveKill:
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable; SIGKILL is not deliverable to ourselves synchronously on all kernels
	case MisbehaveGarbage:
		// No valid frame starts with 0xff, and the declared length is
		// far beyond MaxPayload — the harness must classify this as
		// protocol garbage, not wait for more bytes.
		junk := make([]byte, 64)
		for i := range junk {
			junk[i] = 0xff
		}
		if _, err := bw.Write(junk); err != nil {
			return err
		}
		return bw.Flush()
	case MisbehaveTruncate:
		// A SIG header promising 32 words, followed by half of them,
		// followed by process exit: a truncated signature mid-frame.
		res := RunResult{Signature: make([]uint32, 32)}
		payload := encodeSig(res)
		var hdr [5]byte
		hdr[0] = FrameSig
		hdr[1] = byte(len(payload))
		hdr[2] = byte(len(payload) >> 8)
		if _, err := bw.Write(hdr[:]); err != nil {
			return err
		}
		if _, err := bw.Write(payload[:len(payload)/2]); err != nil {
			return err
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		os.Exit(0)
	}
	return nil
}
