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

// A drain consumes one full pass of s, handing every record to emit.
type drain func(s *Source, emit func(trace.Inst))

// drainNext consumes a pass through Next alone, the serial oracle's way.
func drainNext(s *Source, emit func(trace.Inst)) {
	for {
		in, ok := s.Next()
		if !ok {
			return
		}
		emit(in)
	}
}

// drainBatch consumes a pass through FillBatch at batch capacity c.
func drainBatch(c int) drain {
	return func(s *Source, emit func(trace.Inst)) {
		b := trace.NewBatch(c)
		for s.FillBatch(&b) > 0 {
			for _, in := range b.Ins {
				emit(in)
			}
		}
	}
}

// drainMixed abandons a partial batch-filled pass with Reset, then
// consumes a pass alternating Next with FillBatch at rotating
// capacities, so batch boundaries fall at many different ops.
func drainMixed(s *Source, emit func(trace.Inst)) {
	batches := []trace.Batch{trace.NewBatch(3), trace.NewBatch(64), trace.NewBatch(1000)}
	s.FillBatch(&batches[2])
	s.Next()
	s.Reset()
	for i := 0; ; i++ {
		if i%2 == 0 {
			in, ok := s.Next()
			if !ok {
				return
			}
			emit(in)
			continue
		}
		b := &batches[(i/2)%len(batches)]
		if s.FillBatch(b) == 0 {
			return
		}
		for _, in := range b.Ins {
			emit(in)
		}
	}
}

// streamDrains lists the consumers every pinned stream must hash equal
// under: Next is the reference, the rest exercise FillBatch.
var streamDrains = []struct {
	name  string
	drain drain
}{
	{"next", drainNext},
	{"batch1", drainBatch(1)},
	{"batch7", drainBatch(7)},
	{"batch1024", drainBatch(1024)},
	{"mixed", drainMixed},
}

// streamHash is the FNV-64a hash of two full passes of s separated by
// Reset, each consumed by d.
func streamHash(s *Source, d drain) string {
	h := fnv.New64a()
	emit := func(in trace.Inst) { hashInst(h, in) }
	for pass := 0; pass < 2; pass++ {
		s.Reset()
		d(s, emit)
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
// compilation or interpretation shows up here. Every stream is hashed
// under each of streamDrains: FillBatch at any capacity, alone or mixed
// with Next, must yield exactly Next's stream. Profiles run as parallel
// subtests, which also exercises the shared program cache.
func TestTable4StreamPin(t *testing.T) {
	profs := streamPinProfiles()
	if *updateStreams {
		got := map[string]string{}
		for _, p := range profs {
			got[streamPinKey(p)] = streamHash(New(p), drainNext)
		}
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
	if len(want) != len(profs) {
		t.Errorf("%s pins %d streams, want %d", streamPinFile, len(want), len(profs))
	}
	for _, p := range profs {
		k := streamPinKey(p)
		t.Run(k, func(t *testing.T) {
			t.Parallel()
			s := New(p)
			for _, d := range streamDrains {
				if h := streamHash(s, d.drain); h != want[k] {
					t.Errorf("%s: stream hash %s, pinned %s", d.name, h, want[k])
				}
			}
		})
	}
}
