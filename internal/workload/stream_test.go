package workload

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"testing"

	"bulkpreload/internal/trace"
)

var updateStreams = flag.Bool("update-streams", false, "rewrite testdata/table4_streams.json from current behaviour")

// streamPinInstructions is the per-pass trace length the stream pin
// hashes: long enough to cross many transactions, window advances and
// dispatcher unwinds, short enough for repeated -race runs.
const streamPinInstructions = 40_000

const streamPinFile = "testdata/table4_streams.json"

// hashInst folds every field of one instruction into h.
func hashInst(h hash.Hash64, in trace.Inst) {
	var b [28]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(in.Addr))
	binary.LittleEndian.PutUint64(b[8:], uint64(in.Target))
	binary.LittleEndian.PutUint64(b[16:], uint64(in.HintBranch))
	b[24] = in.Length
	b[25] = byte(in.Kind)
	if in.Taken {
		b[26] = 1
	}
	if in.StaticTaken {
		b[27] = 1
	}
	h.Write(b[:])
}

// streamHash is the FNV-64a hash of two full passes of s separated by
// Reset.
func streamHash(s trace.Source) string {
	h := fnv.New64a()
	for pass := 0; pass < 2; pass++ {
		s.Reset()
		for {
			in, ok := s.Next()
			if !ok {
				break
			}
			hashInst(h, in)
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// streamPinKey names one pinned stream.
func streamPinKey(p Profile) string {
	if p.PreloadHints {
		return p.Name + "+hints"
	}
	return p.Name
}

// streamPinProfiles lists every Table 4 profile, hints off then on.
func streamPinProfiles() []Profile {
	var out []Profile
	for _, p := range Table4Profiles(streamPinInstructions) {
		out = append(out, p)
		p.PreloadHints = true
		out = append(out, p)
	}
	return out
}

// TestTable4StreamPin checks every Table 4 profile's instruction stream,
// with preload hints off and on, against hashes recorded before the
// compiled program's layout last changed. Any drift in program
// compilation or interpretation shows up here.
func TestTable4StreamPin(t *testing.T) {
	got := map[string]string{}
	for _, p := range streamPinProfiles() {
		got[streamPinKey(p)] = streamHash(New(p))
	}
	if *updateStreams {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.FromSlash(streamPinFile), append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(filepath.FromSlash(streamPinFile))
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("%s pins %d streams, want %d", streamPinFile, len(want), len(got))
	}
	for k, h := range got {
		if want[k] != h {
			t.Errorf("%s: stream hash %s, pinned %s", k, h, want[k])
		}
	}
}
