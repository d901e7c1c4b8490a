// Package sut is the out-of-process SUT adapter layer: a versioned,
// length-prefixed binary protocol spoken over a subprocess's
// stdin/stdout, the harness-side Adapter that owns the subprocess's full
// lifecycle (spawn, handshake deadline, per-run watchdog, kill-and-
// restart with jittered exponential backoff, bounded per-case retries,
// bounded stderr capture), and the adapter-side Serve loop that lets any
// Go program join the comparison fleet next to the built-in behavioural
// variants.
//
// The protocol is deliberately tiny — see DESIGN.md §16 for the precise
// frame layout a third-party adapter must implement. Everything the
// harness compares flows through two frames: RUN carries (family,
// config, code bytes) to the adapter, SIG carries the signature words
// back. Modeled faults (the target crashed or did not terminate — the
// findings negative testing exists to take) travel as FAULT frames and
// are kept strictly separate from adapter-level failures (EOF, garbage,
// wedges), which the harness heals by restarting and, past its retry
// budget, surfaces as skipped cases rather than verdicts.
package sut

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// ProtoVersion is the wire protocol version this package speaks. The
// handshake rejects any other version: v1 has no compatibility rules to
// negotiate yet, and failing loudly beats silently mis-parsing frames.
const ProtoVersion = 1

// Frame types. Harness→adapter types have the high bit clear,
// adapter→harness responses have it set.
const (
	FrameHello    byte = 0x01 // harness → adapter: u16 protocol version
	FrameRun      byte = 0x02 // harness → adapter: one test-case execution
	FramePing     byte = 0x03 // harness → adapter: liveness probe, empty
	FrameShutdown byte = 0x04 // harness → adapter: clean exit request, empty

	FrameHelloOK byte = 0x81 // adapter → harness: version/name/capabilities
	FrameSig     byte = 0x82 // adapter → harness: signature words
	FrameFault   byte = 0x83 // adapter → harness: modeled crash/timeout
	FramePong    byte = 0x84 // adapter → harness: liveness reply, empty
	FrameErr     byte = 0x85 // adapter → harness: adapter-level error text
)

// frameName renders a frame type for fault context ("last frame" in
// quarantine details).
func frameName(t byte) string {
	switch t {
	case FrameHello:
		return "HELLO"
	case FrameRun:
		return "RUN"
	case FramePing:
		return "PING"
	case FrameShutdown:
		return "SHUTDOWN"
	case FrameHelloOK:
		return "HELLO-OK"
	case FrameSig:
		return "SIG"
	case FrameFault:
		return "FAULT"
	case FramePong:
		return "PONG"
	case FrameErr:
		return "ERR"
	}
	return fmt.Sprintf("0x%02x", t)
}

// MaxPayload bounds a frame's payload. Signatures are a few hundred
// bytes and test cases a few dozen; a length field beyond this is
// protocol garbage, not a big message.
const MaxPayload = 1 << 20

// Capability bits advertised in the HELLO-OK frame.
const (
	// CapFP: the target implements the F/D extensions; without it the
	// harness renders "/" for floating-point configurations, exactly like
	// a built-in NoFD variant.
	CapFP uint64 = 1 << 0
	// CapTrap: the target implements the trap-rich template family
	// (machine-mode trap-record signature region).
	CapTrap uint64 = 1 << 1
)

// Info is the adapter's identity from the handshake.
type Info struct {
	Proto   uint16
	Caps    uint64
	Name    string
	Version string
}

// RunRequest is one decoded RUN frame.
type RunRequest struct {
	// Family is the template family (0 user, 1 trap), matching
	// template.Family's wire-stable values.
	Family byte
	// Config is the ISA configuration string, e.g. "RV32IMC".
	Config string
	// Code is the raw test-case bytestream.
	Code []byte
}

// RunResult is the adapter's answer to a RUN frame: either a signature
// or a modeled fault (the target's own crash/non-termination verdict).
type RunResult struct {
	Signature []uint32
	Crashed   bool
	TimedOut  bool
	Msg       string // crash detail (FAULT frames only)
	Insts     uint64 // retired instructions (telemetry)
	Traps     uint64 // traps taken (telemetry)
}

// ErrProto marks protocol-garbage conditions (malformed frames,
// oversized lengths, truncated payloads); the harness responds by
// killing and restarting the adapter.
var ErrProto = errors.New("sut: protocol error")

func protoErrf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrProto, fmt.Sprintf(format, args...))
}

// WriteFrame emits one frame: type byte, u32 little-endian payload
// length, payload.
func WriteFrame(w io.Writer, typ byte, payload []byte) error {
	if len(payload) > MaxPayload {
		return protoErrf("oversized %s payload (%d bytes)", frameName(typ), len(payload))
	}
	var hdr [5]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// ReadFrame reads one frame. A malformed header or a truncated payload
// is an ErrProto; a clean EOF before the first header byte is io.EOF.
func ReadFrame(r io.Reader) (typ byte, payload []byte, err error) {
	var hdr [5]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return 0, nil, err // io.EOF: orderly close between frames
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		return 0, nil, protoErrf("truncated frame header: %v", err)
	}
	n := binary.LittleEndian.Uint32(hdr[1:])
	if n > MaxPayload {
		return 0, nil, protoErrf("frame %s declares %d-byte payload (max %d)", frameName(hdr[0]), n, MaxPayload)
	}
	if n > 0 {
		payload = make([]byte, n)
		if _, err := io.ReadFull(r, payload); err != nil {
			return 0, nil, protoErrf("truncated %s payload: %v", frameName(hdr[0]), err)
		}
	}
	return hdr[0], payload, nil
}

// --- payload codecs ---
//
// All multi-byte integers are little-endian. Strings and byte blobs are
// length-prefixed; string lengths are u8 (identity fields) or u16
// (messages), code blobs u32.

func appendString8(b []byte, s string) []byte {
	if len(s) > 255 {
		s = s[:255]
	}
	return append(append(b, byte(len(s))), s...)
}

func encodeHello() []byte {
	return binary.LittleEndian.AppendUint16(nil, ProtoVersion)
}

func decodeHello(p []byte) (version uint16, err error) {
	if len(p) != 2 {
		return 0, protoErrf("HELLO payload is %d bytes, want 2", len(p))
	}
	return binary.LittleEndian.Uint16(p), nil
}

func encodeHelloOK(info Info) []byte {
	b := binary.LittleEndian.AppendUint16(nil, info.Proto)
	b = binary.LittleEndian.AppendUint64(b, info.Caps)
	b = appendString8(b, info.Name)
	b = appendString8(b, info.Version)
	return b
}

func decodeHelloOK(p []byte) (Info, error) {
	var info Info
	if len(p) < 10 {
		return info, protoErrf("HELLO-OK payload is %d bytes, want >= 10", len(p))
	}
	info.Proto = binary.LittleEndian.Uint16(p)
	info.Caps = binary.LittleEndian.Uint64(p[2:])
	rest := p[10:]
	var err error
	if info.Name, rest, err = takeString8(rest, "HELLO-OK name"); err != nil {
		return info, err
	}
	if info.Version, rest, err = takeString8(rest, "HELLO-OK version"); err != nil {
		return info, err
	}
	if len(rest) != 0 {
		return info, protoErrf("HELLO-OK has %d trailing bytes", len(rest))
	}
	return info, nil
}

func takeString8(p []byte, what string) (string, []byte, error) {
	if len(p) < 1 {
		return "", nil, protoErrf("%s length missing", what)
	}
	n := int(p[0])
	if len(p) < 1+n {
		return "", nil, protoErrf("%s truncated (%d of %d bytes)", what, len(p)-1, n)
	}
	return string(p[1 : 1+n]), p[1+n:], nil
}

func encodeRun(req RunRequest) []byte {
	b := []byte{req.Family}
	b = appendString8(b, req.Config)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(req.Code)))
	return append(b, req.Code...)
}

func decodeRun(p []byte) (RunRequest, error) {
	var req RunRequest
	if len(p) < 1 {
		return req, protoErrf("empty RUN payload")
	}
	req.Family = p[0]
	var err error
	var rest []byte
	if req.Config, rest, err = takeString8(p[1:], "RUN config"); err != nil {
		return req, err
	}
	if len(rest) < 4 {
		return req, protoErrf("RUN code length missing")
	}
	n := binary.LittleEndian.Uint32(rest)
	rest = rest[4:]
	if uint32(len(rest)) != n {
		return req, protoErrf("RUN code truncated (%d of %d bytes)", len(rest), n)
	}
	req.Code = rest
	return req, nil
}

func encodeSig(res RunResult) []byte {
	b := binary.LittleEndian.AppendUint64(nil, res.Insts)
	b = binary.LittleEndian.AppendUint64(b, res.Traps)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(res.Signature)))
	for _, w := range res.Signature {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

func decodeSig(p []byte) (RunResult, error) {
	var res RunResult
	if len(p) < 20 {
		return res, protoErrf("SIG payload is %d bytes, want >= 20", len(p))
	}
	res.Insts = binary.LittleEndian.Uint64(p)
	res.Traps = binary.LittleEndian.Uint64(p[8:])
	n := binary.LittleEndian.Uint32(p[16:])
	words := p[20:]
	// In 64 bits: 4*n wraps in 32, so a huge n could pass for a small one.
	if uint64(len(words)) != 4*uint64(n) {
		return res, protoErrf("SIG declares %d words but carries %d bytes", n, len(words))
	}
	res.Signature = make([]uint32, n)
	for i := range res.Signature {
		res.Signature[i] = binary.LittleEndian.Uint32(words[4*i:])
	}
	return res, nil
}

// Modeled-fault kinds carried in FAULT frames.
const (
	faultCrashed  byte = 1
	faultTimedOut byte = 2
)

func encodeFault(res RunResult) []byte {
	kind := faultCrashed
	if res.TimedOut {
		kind = faultTimedOut
	}
	b := []byte{kind}
	b = binary.LittleEndian.AppendUint64(b, res.Insts)
	b = binary.LittleEndian.AppendUint64(b, res.Traps)
	msg := res.Msg
	if len(msg) > 1<<12 {
		msg = msg[:1<<12] // a panic message, not a core dump
	}
	b = binary.LittleEndian.AppendUint16(b, uint16(len(msg)))
	return append(b, msg...)
}

func decodeFault(p []byte) (RunResult, error) {
	var res RunResult
	if len(p) < 19 {
		return res, protoErrf("FAULT payload is %d bytes, want >= 19", len(p))
	}
	switch p[0] {
	case faultCrashed:
		res.Crashed = true
	case faultTimedOut:
		res.TimedOut = true
	default:
		return res, protoErrf("FAULT kind %d unknown", p[0])
	}
	res.Insts = binary.LittleEndian.Uint64(p[1:])
	res.Traps = binary.LittleEndian.Uint64(p[9:])
	n := binary.LittleEndian.Uint16(p[17:])
	if len(p) != 19+int(n) {
		return res, protoErrf("FAULT message truncated (%d of %d bytes)", len(p)-19, n)
	}
	res.Msg = string(p[19:])
	return res, nil
}

func encodeErr(msg string) []byte {
	if len(msg) > 1<<12 {
		msg = msg[:1<<12]
	}
	b := binary.LittleEndian.AppendUint16(nil, uint16(len(msg)))
	return append(b, msg...)
}

func decodeErr(p []byte) (string, error) {
	if len(p) < 2 {
		return "", protoErrf("ERR payload is %d bytes, want >= 2", len(p))
	}
	n := binary.LittleEndian.Uint16(p)
	if len(p) != 2+int(n) {
		return "", protoErrf("ERR message truncated (%d of %d bytes)", len(p)-2, n)
	}
	return string(p[2:]), nil
}
