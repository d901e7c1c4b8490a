package sut

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
)

// TestFrameRoundTrip: WriteFrame output parses back via ReadFrame.
func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{0xab}, 300)}
	for i, p := range payloads {
		if err := WriteFrame(&buf, byte(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range payloads {
		typ, got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if typ != byte(i+1) || !bytes.Equal(got, p) {
			t.Fatalf("frame %d: typ=%d len=%d, want typ=%d len=%d", i, typ, len(got), i+1, len(p))
		}
	}
	if _, _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("read past end = %v, want io.EOF", err)
	}
}

// TestReadFrameGarbage: malformed input is ErrProto, never a hang or a
// silent mis-parse.
func TestReadFrameGarbage(t *testing.T) {
	cases := map[string][]byte{
		"truncated header":  {0x82, 1, 0},
		"oversized length":  {0x82, 0xff, 0xff, 0xff, 0xff},
		"truncated payload": {0x82, 8, 0, 0, 0, 1, 2, 3},
		"all-ones junk":     bytes.Repeat([]byte{0xff}, 64),
	}
	for name, in := range cases {
		if _, _, err := ReadFrame(bytes.NewReader(in)); !errors.Is(err, ErrProto) {
			t.Errorf("%s: err = %v, want ErrProto", name, err)
		}
	}
}

// TestWriteFrameOversize: an oversized payload is rejected before any
// bytes hit the wire.
func TestWriteFrameOversize(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, FrameSig, make([]byte, MaxPayload+1)); !errors.Is(err, ErrProto) {
		t.Fatalf("err = %v, want ErrProto", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("%d bytes written for rejected frame", buf.Len())
	}
}

// TestCodecRoundTrips: every payload codec is lossless.
func TestCodecRoundTrips(t *testing.T) {
	v, err := decodeHello(encodeHello())
	if err != nil || v != ProtoVersion {
		t.Fatalf("hello round trip = (%d, %v)", v, err)
	}

	info := Info{Proto: ProtoVersion, Caps: CapFP | CapTrap, Name: "spike-adapter", Version: "1.2.3"}
	got, err := decodeHelloOK(encodeHelloOK(info))
	if err != nil || !reflect.DeepEqual(got, info) {
		t.Fatalf("helloOK round trip = (%+v, %v), want %+v", got, err, info)
	}

	req := RunRequest{Family: 1, Config: "RV32IMC", Code: []byte{1, 2, 3, 4}}
	gotReq, err := decodeRun(encodeRun(req))
	if err != nil || !reflect.DeepEqual(gotReq, req) {
		t.Fatalf("run round trip = (%+v, %v), want %+v", gotReq, err, req)
	}

	sig := RunResult{Signature: []uint32{0, 1, 0xdeadbeef}, Insts: 7, Traps: 2}
	gotSig, err := decodeSig(encodeSig(sig))
	if err != nil || !reflect.DeepEqual(gotSig, sig) {
		t.Fatalf("sig round trip = (%+v, %v), want %+v", gotSig, err, sig)
	}
	empty := RunResult{Signature: []uint32{}}
	gotEmpty, err := decodeSig(encodeSig(empty))
	if err != nil || len(gotEmpty.Signature) != 0 {
		t.Fatalf("empty sig round trip = (%+v, %v)", gotEmpty, err)
	}

	fault := RunResult{Crashed: true, Msg: "decoder panic", Insts: 3, Traps: 1}
	gotFault, err := decodeFault(encodeFault(fault))
	if err != nil || !reflect.DeepEqual(gotFault, fault) {
		t.Fatalf("fault round trip = (%+v, %v), want %+v", gotFault, err, fault)
	}
	to := RunResult{TimedOut: true, Insts: 20000}
	gotTO, err := decodeFault(encodeFault(to))
	if err != nil || !reflect.DeepEqual(gotTO, to) {
		t.Fatalf("timeout round trip = (%+v, %v), want %+v", gotTO, err, to)
	}

	msg, err := decodeErr(encodeErr("unsupported config"))
	if err != nil || msg != "unsupported config" {
		t.Fatalf("err round trip = (%q, %v)", msg, err)
	}
}

// TestCodecMalformed: truncated or inconsistent payloads are ErrProto.
func TestCodecMalformed(t *testing.T) {
	if _, err := decodeHelloOK([]byte{1, 0}); !errors.Is(err, ErrProto) {
		t.Errorf("short helloOK: %v", err)
	}
	long := encodeHelloOK(Info{Proto: 1, Name: "x", Version: "y"})
	if _, err := decodeHelloOK(append(long, 0)); !errors.Is(err, ErrProto) {
		t.Errorf("trailing helloOK bytes: %v", err)
	}
	if _, err := decodeRun([]byte{0, 5, 'a'}); !errors.Is(err, ErrProto) {
		t.Errorf("truncated run config: %v", err)
	}
	sig := encodeSig(RunResult{Signature: []uint32{1, 2}})
	if _, err := decodeSig(sig[:len(sig)-2]); !errors.Is(err, ErrProto) {
		t.Errorf("truncated sig words: %v", err)
	}
	// 4 × 0x40000001 wraps to 4 in 32 bits: one word's bytes must not
	// pass for a count of over a billion.
	wrapped := encodeSig(RunResult{Signature: []uint32{7}})
	wrapped[16], wrapped[17], wrapped[18], wrapped[19] = 0x01, 0, 0, 0x40
	if _, err := decodeSig(wrapped); !errors.Is(err, ErrProto) {
		t.Errorf("sig word count that wraps: %v", err)
	}
	if _, err := decodeFault([]byte{9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}); !errors.Is(err, ErrProto) {
		t.Errorf("unknown fault kind: %v", err)
	}
}

// stubHandler serves canned results for the serve-loop test.
type stubHandler struct {
	res RunResult
	err error
}

func (h stubHandler) Info() Info { return Info{Caps: CapTrap, Name: "stub", Version: "test"} }
func (h stubHandler) Run(req RunRequest) (RunResult, error) {
	if h.err != nil {
		return RunResult{}, h.err
	}
	res := h.res
	// Echo the code length so the test can see the request arrived intact.
	res.Insts = uint64(len(req.Code))
	return res, nil
}

// serveExchange runs one scripted harness-side conversation against
// Serve over in-memory pipes and returns the responses.
func serveExchange(t *testing.T, h Handler, script func(w io.Writer)) []frameMsg {
	t.Helper()
	hr, hw := io.Pipe() // harness → adapter
	ar, aw := io.Pipe() // adapter → harness
	done := make(chan error, 1)
	go func() { done <- Serve(hr, aw, h, ServeOpts{}); aw.Close() }()
	go func() { script(hw); hw.Close() }()
	var out []frameMsg
	for {
		typ, payload, err := ReadFrame(ar)
		if err != nil {
			if err != io.EOF {
				t.Errorf("harness read: %v", err)
			}
			break
		}
		out = append(out, frameMsg{typ: typ, payload: payload})
	}
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	return out
}

// TestServeLoop: handshake, ping, run (signature, modeled fault, and
// adapter error), shutdown.
func TestServeLoop(t *testing.T) {
	frames := serveExchange(t, stubHandler{res: RunResult{Signature: []uint32{7}}}, func(w io.Writer) {
		WriteFrame(w, FrameHello, encodeHello())
		WriteFrame(w, FramePing, nil)
		WriteFrame(w, FrameRun, encodeRun(RunRequest{Config: "RV32I", Code: []byte{1, 2}}))
		WriteFrame(w, FrameShutdown, nil)
	})
	if len(frames) != 3 {
		t.Fatalf("got %d response frames, want 3", len(frames))
	}
	info, err := decodeHelloOK(frames[0].payload)
	if frames[0].typ != FrameHelloOK || err != nil || info.Name != "stub" || info.Proto != ProtoVersion {
		t.Fatalf("handshake response = %s %+v (%v)", frameName(frames[0].typ), info, err)
	}
	if frames[1].typ != FramePong {
		t.Fatalf("ping response = %s", frameName(frames[1].typ))
	}
	res, err := decodeSig(frames[2].payload)
	if frames[2].typ != FrameSig || err != nil || res.Insts != 2 || len(res.Signature) != 1 {
		t.Fatalf("run response = %s %+v (%v)", frameName(frames[2].typ), res, err)
	}
}

// TestServeModeledFault: Crashed/TimedOut results travel as FAULT frames.
func TestServeModeledFault(t *testing.T) {
	frames := serveExchange(t, stubHandler{res: RunResult{Crashed: true, Msg: "boom"}}, func(w io.Writer) {
		WriteFrame(w, FrameRun, encodeRun(RunRequest{Config: "RV32I"}))
	})
	if len(frames) != 1 || frames[0].typ != FrameFault {
		t.Fatalf("frames = %v", frames)
	}
	res, err := decodeFault(frames[0].payload)
	if err != nil || !res.Crashed || res.Msg != "boom" {
		t.Fatalf("fault = %+v (%v)", res, err)
	}
}

// TestServeHandlerError: a handler error becomes an ERR frame and the
// loop keeps serving.
func TestServeHandlerError(t *testing.T) {
	frames := serveExchange(t, stubHandler{err: errors.New("config not built")}, func(w io.Writer) {
		WriteFrame(w, FrameRun, encodeRun(RunRequest{Config: "RV99"}))
		WriteFrame(w, FramePing, nil)
	})
	if len(frames) != 2 || frames[0].typ != FrameErr || frames[1].typ != FramePong {
		t.Fatalf("frames = %v", frames)
	}
	msg, err := decodeErr(frames[0].payload)
	if err != nil || !strings.Contains(msg, "config not built") {
		t.Fatalf("err payload = (%q, %v)", msg, err)
	}
}

// TestServeVersionMismatch: a HELLO with the wrong version gets an
// in-protocol ERR and the serve loop exits with an error.
func TestServeVersionMismatch(t *testing.T) {
	hr, hw := io.Pipe()
	ar, aw := io.Pipe()
	done := make(chan error, 1)
	go func() { done <- Serve(hr, aw, stubHandler{}, ServeOpts{}); aw.Close() }()
	go func() {
		WriteFrame(hw, FrameHello, []byte{99, 0})
		hw.Close()
	}()
	typ, payload, err := ReadFrame(ar)
	if err != nil || typ != FrameErr {
		t.Fatalf("response = %s (%v)", frameName(typ), err)
	}
	msg, _ := decodeErr(payload)
	if !strings.Contains(msg, "version") {
		t.Fatalf("mismatch message = %q", msg)
	}
	io.Copy(io.Discard, ar)
	if err := <-done; err == nil {
		t.Fatal("serve accepted a wrong-version handshake")
	}
}
