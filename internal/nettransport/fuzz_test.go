package nettransport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/eventual-agreement/eba/internal/failures"
	"github.com/eventual-agreement/eba/internal/types"
)

// codecErr reports whether err is one of the codec's typed errors (or
// a clean EOF, legal between frames). Anything else leaking out of the
// decoder on hostile input is a bug.
func codecErr(err error) bool {
	return err == io.EOF ||
		errors.Is(err, ErrFrameTooLarge) ||
		errors.Is(err, ErrTruncatedFrame) ||
		errors.Is(err, ErrBadFrame)
}

// FuzzRoundFrameCodec round-trips round-tagged frames and checks the
// decoder rejects hostile streams with typed errors only: every strict
// prefix of an encoded frame, and the fuzzed payload bytes read as a
// raw stream.
func FuzzRoundFrameCodec(f *testing.F) {
	f.Add(uint32(1), []byte("view"), false)
	f.Add(uint32(0), []byte(nil), true)
	f.Add(uint32(1<<31), bytes.Repeat([]byte{0xab}, 512), false)
	f.Add(uint32(2), []byte(failures.Deaf(failures.ReceivingOmission, 4, 3, 2, 1).Key()), false)
	f.Add(uint32(3), []byte{1, 0xff}, false)                          // unknown flag
	f.Add(uint32(3), []byte{1, flagPayload, 5, 1, 2}, false)          // truncated payload
	f.Add(uint32(3), []byte{1, flagPayload, 0xa0, 0x8d, 0x06}, false) // > maxFrame
	f.Fuzz(func(t *testing.T, round uint32, payload []byte, null bool) {
		if null {
			payload = nil
		}
		var buf bytes.Buffer
		if err := writeRoundFrame(&buf, types.Round(round), payload); err != nil {
			t.Fatal(err)
		}
		encoded := buf.Bytes()

		r, got, err := readRoundFrame(&buf)
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if r != types.Round(round) {
			t.Fatalf("round %d -> %d", round, r)
		}
		if (payload == nil) != (got == nil) || !bytes.Equal(payload, got) {
			t.Fatalf("payload %x -> %x", payload, got)
		}

		// Every strict prefix is a truncated frame (or a clean EOF when
		// the prefix is empty) — never a panic or an untyped error.
		for cut := 0; cut < len(encoded); cut++ {
			_, _, err := readRoundFrame(bytes.NewReader(encoded[:cut]))
			if err == nil {
				t.Fatalf("prefix %d/%d decoded successfully", cut, len(encoded))
			}
			if !codecErr(err) {
				t.Fatalf("prefix %d/%d: untyped error %v", cut, len(encoded), err)
			}
		}

		// The payload as a hostile stream: whatever decodes stays
		// within the frame limit and survives a round trip.
		raw := bytes.NewReader(payload)
		for {
			r, got, err := readRoundFrame(raw)
			if err != nil {
				if !codecErr(err) {
					t.Fatalf("raw stream: untyped error %v", err)
				}
				break
			}
			if len(got) > maxFrame {
				t.Fatalf("decoded %d bytes past the frame limit", len(got))
			}
			var again bytes.Buffer
			if err := writeRoundFrame(&again, r, got); err != nil {
				t.Fatal(err)
			}
			r2, got2, err := readRoundFrame(&again)
			if err != nil || r2 != r || (got == nil) != (got2 == nil) || !bytes.Equal(got, got2) {
				t.Fatalf("raw stream round trip: (%d, %x) -> (%d, %x, %v)", r, got, r2, got2, err)
			}
		}
	})
}

// The maxFrame boundary is exact: a declared length of maxFrame is
// readable, maxFrame+1 is ErrFrameTooLarge before any payload read.
func TestFrameSizeBoundary(t *testing.T) {
	var buf bytes.Buffer
	if err := writeRoundFrame(&buf, 2, make([]byte, maxFrame)); err != nil {
		t.Fatal(err)
	}
	r, payload, err := readRoundFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r != 2 || len(payload) != maxFrame {
		t.Fatalf("round %d, len = %d", r, len(payload))
	}

	var big bytes.Buffer
	var hdr [binary.MaxVarintLen64]byte
	big.Write(hdr[:binary.PutUvarint(hdr[:], 2)]) // round
	big.WriteByte(flagPayload)
	big.Write(hdr[:binary.PutUvarint(hdr[:], maxFrame+1)])
	if _, _, err := readRoundFrame(&big); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}
