package nettransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"strings"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/sim"
	"github.com/eventual-agreement/eba/internal/types"
)

// nonBytesProto produces a non-[]byte message; the engine must report
// it as an error rather than panic or write it off as an omission.
type nonBytesProto struct{}

func (nonBytesProto) Name() string { return "bad" }

func (nonBytesProto) New(env sim.Env) sim.Process { return nonBytesProc{n: env.Params.N} }

type nonBytesProc struct{ n int }

func (p nonBytesProc) Send(types.Round) []sim.Message {
	out := make([]sim.Message, p.n)
	for i := range out {
		out[i] = 42
	}
	return out
}

func (nonBytesProc) Receive(types.Round, []sim.Message) {}
func (nonBytesProc) Decided() (types.Value, bool)       { return types.Unset, false }

func TestTCPRejectsNonBytes(t *testing.T) {
	params := types.Params{N: 3, T: 0}
	_, err := RunResilient(nonBytesProto{}, params, types.ConfigFromBits(3, 0),
		Options{Mode: failures.Crash, Horizon: 1, Deadline: testDeadline})
	if err == nil {
		t.Fatal("non-[]byte message accepted")
	}
	if !strings.Contains(err.Error(), "non-[]byte") {
		t.Fatalf("err = %v, want the non-[]byte message error", err)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, {1}, bytes.Repeat([]byte{7}, 1000)}
	for i, p := range payloads {
		if err := writeRoundFrame(&buf, types.Round(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range payloads {
		r, got, err := readRoundFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if r != types.Round(i+1) {
			t.Fatalf("frame %d: round %d", i, r)
		}
		if (want == nil) != (got == nil) || !bytes.Equal(want, got) {
			t.Fatalf("frame round trip: %v -> %v", want, got)
		}
	}
	// Oversized frames rejected with the typed error.
	var big bytes.Buffer
	big.Write([]byte{1, flagPayload})
	hdr := make([]byte, binary.MaxVarintLen64)
	big.Write(hdr[:binary.PutUvarint(hdr, maxFrame+1)])
	if _, _, err := readRoundFrame(&big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame: err = %v, want ErrFrameTooLarge", err)
	}
	// A stream that dies mid-frame is a truncation, not a protocol
	// violation.
	if _, _, err := readRoundFrame(bytes.NewReader([]byte{1, flagPayload, 5, 1, 2})); !errors.Is(err, ErrTruncatedFrame) {
		t.Fatalf("torn frame: err = %v, want ErrTruncatedFrame", err)
	}
	// An unknown flag byte poisons the stream.
	if _, _, err := readRoundFrame(bytes.NewReader([]byte{1, 0x7f})); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("bad flag: err = %v, want ErrBadFrame", err)
	}
	// A clean close between frames is a plain EOF, never a typed
	// failure.
	if _, _, err := readRoundFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("clean close: err = %v, want io.EOF", err)
	}
}
