package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// wirePin is a committed ZBPT file: a few hundred records covering every
// kind, both StaticTaken values on every kind, preload hints with their
// hint branch, not-taken branches and plain records carrying arbitrary
// (even odd) targets, and addresses across the full 64-bit range.
// TestLayoutSweep checks each codec against the record layout, but a
// format change made to both codecs and to that test's table together
// would pass it; the pinned bytes catch that.
const wirePin = "testdata/wire.zbpt"

// TestWirePin decodes the pinned file through Read, BatchDecoder and
// FileSource, requires all three to agree, and re-encodes the records
// byte for byte.
func TestWirePin(t *testing.T) {
	data, err := os.ReadFile(wirePin)
	if err != nil {
		t.Fatal(err)
	}
	name, want, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if name != "wire-pin" || len(want) != 336 {
		t.Fatalf("Read: %q with %d records, want \"wire-pin\" with 336", name, len(want))
	}

	// The pin must keep covering what it claims to cover.
	staticSeen := map[Kind][2]bool{}
	var hints, oddTargets, highAddrs int
	for _, in := range want {
		s := staticSeen[in.Kind]
		if in.StaticTaken {
			s[1] = true
		} else {
			s[0] = true
		}
		staticSeen[in.Kind] = s
		if in.Kind == PreloadHint && in.HintBranch != 0 {
			hints++
		}
		if in.Target%2 != 0 {
			oddTargets++
		}
		if in.Addr>>63 != 0 {
			highAddrs++
		}
	}
	for k := Kind(0); k < numKinds; k++ {
		if s := staticSeen[k]; !s[0] || !s[1] {
			t.Errorf("pin covers %v with StaticTaken unset %v, set %v; want both", k, s[0], s[1])
		}
	}
	if hints == 0 || oddTargets == 0 || highAddrs == 0 {
		t.Errorf("pin lacks coverage: %d hints, %d odd targets, %d high addresses", hints, oddTargets, highAddrs)
	}

	for _, batchCap := range []int{1, 7, 64, DefaultBatchCapacity} {
		dec, err := NewBatchDecoder(bytes.NewReader(data), batchCap)
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainDecoder(dec, batchCap)
		if err != nil {
			t.Fatalf("cap=%d: BatchDecoder: %v", batchCap, err)
		}
		requireSame(t, "BatchDecoder", got, want)
	}

	path := filepath.Join(t.TempDir(), "wire.zbpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	requireSame(t, "FileSource", Collect(src), want)
	if src.Err() != nil {
		t.Fatalf("FileSource: %v", src.Err())
	}

	if re := encode(t, name, want); !bytes.Equal(re, data) {
		i := 0
		for i < len(re) && i < len(data) && re[i] == data[i] {
			i++
		}
		t.Fatalf("re-encoding differs from the pin at byte %d (%d bytes, pin has %d)", i, len(re), len(data))
	}
}

// requireSame fails t unless got holds exactly want's records.
func requireSame(t *testing.T, what string, got, want []Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, want %+v", what, i, got[i], want[i])
		}
	}
}
