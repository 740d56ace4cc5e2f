package jobq

import (
	"bytes"
	"encoding/json"
	"hash/crc32"
	"strings"
	"testing"

	"bulkpreload/internal/layouttest"
)

// TestFrameLayout checks both framing codecs against the frame layout:
// a u32 payload length in bytes 0..3 and the payload's u32 CRC32 in
// bytes 4..7, frameSize bytes in all, then the payload. appendRecord
// must write exactly those fields, with lengths that fill the length
// field's low three bytes; replayJournal must accept a frame the test
// builds from the layout, and reject it once any one of its bytes is
// flipped, so it reads every declared byte and no other.
func TestFrameLayout(t *testing.T) {
	length := layouttest.Field{Name: "length", Lo: 0, Width: 32}
	crc := layouttest.Field{Name: "crc", Lo: 32, Width: 32}
	layouttest.Check(t, layouttest.Layout{Bits: 8 * frameSize, Fields: []layouttest.Field{length, crc}})

	for _, n := range []int{0, 0xFF, 0x1_0000} {
		var buf bytes.Buffer
		if err := appendRecord(&buf, &record{Op: opFail, ID: "j1", Error: strings.Repeat("x", n)}); err != nil {
			t.Fatal(err)
		}
		frame, payload := buf.Bytes()[:frameSize], buf.Bytes()[frameSize:]
		if got := layouttest.Get(frame, length); got != uint64(len(payload)) {
			t.Errorf("error of %d bytes: length field %d, payload %d bytes", n, got, len(payload))
		}
		if got := layouttest.Get(frame, crc); got != uint64(crc32.ChecksumIEEE(payload)) {
			t.Errorf("error of %d bytes: crc field %#x, want %#x", n, got, crc32.ChecksumIEEE(payload))
		}
	}

	payload, err := json.Marshal(&record{Op: opEnqueue, ID: "j1", Tenant: "acme", Payload: json.RawMessage(`{}`), Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, frameSize)
	layouttest.Put(frame, length, uint64(len(payload)))
	layouttest.Put(frame, crc, uint64(crc32.ChecksumIEEE(payload)))
	journal := func(frame []byte) []byte {
		return append(append([]byte(journalMagic), frame...), payload...)
	}
	if st, _, err := replayJournal(bytes.NewReader(journal(frame))); err != nil || len(st.jobs) != 1 {
		t.Fatalf("replaying a frame built from the layout: err %v", err)
	}
	for i := range frame {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0xFF
		if _, _, err := replayJournal(bytes.NewReader(journal(bad))); err == nil {
			t.Errorf("frame byte %d flipped: replay accepted it", i)
		}
	}
}
