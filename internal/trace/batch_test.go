package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/zaddr"
)

// mkRandomTrace builds n pseudorandom valid records (every Kind, mixed
// flags) — the property-test corpus for decoder equivalence.
func mkRandomTrace(tb testing.TB, n int, seed int64) []Inst {
	tb.Helper()
	r := rand.New(rand.NewSource(seed))
	evenAddr := func() zaddr.Addr { return zaddr.Addr(r.Uint64()<<1) | 2 }
	kinds := []Kind{NotBranch, CondDirect, UncondDirect, Call, Return, IndirectOther, PreloadHint}
	ins := make([]Inst, 0, n)
	for len(ins) < n {
		k := kinds[r.Intn(len(kinds))]
		in := Inst{
			Addr:   evenAddr(),
			Length: uint8(2 * (1 + r.Intn(3))),
			Kind:   k,
		}
		switch {
		case k == PreloadHint:
			in.Target = evenAddr()
			in.HintBranch = evenAddr()
		case k != NotBranch:
			in.Taken = k.AlwaysTaken() || r.Intn(2) == 0
			in.StaticTaken = r.Intn(2) == 0
			if in.Taken {
				in.Target = evenAddr()
			}
		}
		if err := in.Validate(); err != nil {
			continue // skip combinations the format forbids
		}
		ins = append(ins, in)
	}
	return ins
}

// encode serializes ins under name and returns the wire bytes.
func encode(tb testing.TB, name string, ins []Inst) []byte {
	tb.Helper()
	var buf bytes.Buffer
	if _, err := WriteSlice(&buf, name, ins); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// drainDecoder pulls every record out of a BatchDecoder, returning the
// salvaged records and the terminal error (nil on clean EOF).
func drainDecoder(dec *BatchDecoder, batchCap int) ([]Inst, error) {
	b := NewBatch(batchCap)
	var out []Inst
	for {
		err := dec.Next(&b)
		out = append(out, b.Ins...)
		if err != nil {
			if err == io.EOF {
				return out, nil
			}
			return out, err
		}
	}
}

// readReference decodes a ZBPT stream record at a time: one ReadFull and
// one full Validate per record. It shares only readHeader, decodeRecord
// and the error builders with the production path, and is the reference
// the batch decoder (and so Read) is cross-checked against.
func readReference(r io.Reader) (name string, ins []Inst, err error) {
	br := bufio.NewReader(r)
	name, n, off, err := readHeader(br)
	if err != nil {
		return name, nil, err
	}
	ins = make([]Inst, 0, min(n, 1<<20))
	var rec [recordSize]byte
	for i := uint64(0); i < n; i++ {
		if k, err := io.ReadFull(br, rec[:]); err != nil {
			return name, ins, errRecordCut(i, n, off, k)
		}
		var in Inst
		decodeRecord(rec[:], &in)
		if err := in.Validate(); err != nil {
			return name, ins, errRecordInvalid(i, off, err)
		}
		off += recordSize
		ins = append(ins, in)
	}
	return name, ins, nil
}

// requireSameRead fails t unless Read's result on data matches the
// reference decoder's: same name, records and diagnostic.
func requireSameRead(t *testing.T, data []byte, wantName string, want []Inst, wantErr error) {
	t.Helper()
	name, got, err := Read(bytes.NewReader(data))
	if name != wantName || (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Read: name %q err %v, reference name %q err %v", name, err, wantName, wantErr)
	}
	requireSame(t, "Read", got, want)
}

// TestBatchDecoderMatchesRead is the round-trip property: for any batch
// capacity, the batch decoder (and Read, which drains one) must deliver
// exactly the records the reference decoder does, in order.
func TestBatchDecoderMatchesRead(t *testing.T) {
	for _, n := range []int{0, 1, 3, 63, 64, 65, 1000} {
		ins := mkRandomTrace(t, n, int64(7000+n))
		data := encode(t, "prop", ins)
		wantName, want, err := readReference(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("n=%d: reference decode failed: %v", n, err)
		}
		requireSameRead(t, data, wantName, want, nil)
		for _, batchCap := range []int{1, 2, 7, 64, 1024} {
			dec, err := NewBatchDecoder(bytes.NewReader(data), batchCap)
			if err != nil {
				t.Fatalf("n=%d cap=%d: %v", n, batchCap, err)
			}
			if dec.Name() != wantName || dec.total != uint64(n) {
				t.Fatalf("n=%d cap=%d: header %q/%d, want %q/%d",
					n, batchCap, dec.Name(), dec.total, wantName, n)
			}
			got, derr := drainDecoder(dec, batchCap)
			if derr != nil {
				t.Fatalf("n=%d cap=%d: decode failed: %v", n, batchCap, derr)
			}
			if len(got) != len(want) {
				t.Fatalf("n=%d cap=%d: %d records, want %d", n, batchCap, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("n=%d cap=%d: record %d = %+v, want %+v", n, batchCap, i, got[i], want[i])
				}
			}
		}
	}
}

// TestBatchDecoderTruncationMatchesRead cuts a stream at every byte
// offset — which, across the capacity set, places cuts exactly on and
// around batch boundaries — and demands the decoder (and Read) salvage
// the same record prefix and report the very same diagnostic string as
// the reference decoder.
func TestBatchDecoderTruncationMatchesRead(t *testing.T) {
	ins := mkRandomTrace(t, 10, 42)
	data := encode(t, "cut", ins)
	for cut := 0; cut < len(data); cut++ {
		wantName, want, wantErr := readReference(bytes.NewReader(data[:cut]))
		requireSameRead(t, data[:cut], wantName, want, wantErr)
		for _, batchCap := range []int{1, 2, 4, 64} {
			dec, err := NewBatchDecoder(bytes.NewReader(data[:cut]), batchCap)
			if err != nil {
				// Header-level failure: the reference must have failed identically.
				if wantErr == nil {
					t.Fatalf("cut=%d cap=%d: decoder rejected header the reference accepted: %v", cut, batchCap, err)
				}
				if err.Error() != wantErr.Error() {
					t.Fatalf("cut=%d cap=%d: header diagnostics differ:\n  decoder:   %v\n  reference: %v",
						cut, batchCap, err, wantErr)
				}
				continue
			}
			got, gotErr := drainDecoder(dec, batchCap)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("cut=%d cap=%d: decoder err %v, reference err %v", cut, batchCap, gotErr, wantErr)
			}
			if gotErr != nil {
				if gotErr.Error() != wantErr.Error() {
					t.Fatalf("cut=%d cap=%d: diagnostics differ:\n  decoder:   %v\n  reference: %v",
						cut, batchCap, gotErr, wantErr)
				}
				if !errors.Is(gotErr, ErrBadTrace) {
					t.Fatalf("cut=%d cap=%d: not ErrBadTrace: %v", cut, batchCap, gotErr)
				}
			}
			if len(got) != len(want) {
				t.Fatalf("cut=%d cap=%d: salvaged %d records, reference salvaged %d", cut, batchCap, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("cut=%d cap=%d: salvaged record %d differs", cut, batchCap, i)
				}
			}
		}
	}
}

// TestBatchDecoderCorruptRecord plants one invalid record as the first,
// a middle or the last record of a batch, for several batch capacities,
// turning a plain or a branch record invalid in four ways Validate
// rejects. The decoder and Read
// must salvage the reference decoder's prefix with its diagnostic, and
// in-place decode must never leave the bad record, or any after it, in
// the batch.
func TestBatchDecoderCorruptRecord(t *testing.T) {
	corruptions := []struct {
		name string
		diag string // what the reference diagnostic must name
		poke func(rec []byte)
	}{
		{"bad-kind", "invalid kind", func(rec []byte) { rec[25] = 0xee }},
		{"length-3", "invalid length 3", func(rec []byte) { rec[24] = 3 }},
		{"always-taken-not-taken", "resolved not-taken", func(rec []byte) {
			rec[25] = uint8(Call)
			rec[26] &^= 1
		}},
		{"odd-target", "misaligned target", func(rec []byte) {
			rec[25] = uint8(CondDirect)
			rec[26] |= 1
			binary.LittleEndian.PutUint64(rec[8:16], 0x2001)
		}},
	}
	victims := map[string]Inst{
		"plain":  {Addr: 0x4000, Length: 4, Kind: NotBranch},
		"branch": {Addr: 0x4000, Length: 4, Kind: CondDirect, Taken: true, Target: 0x5000},
	}
	for _, batchCap := range []int{1, 3, 64, 1024} {
		ins := mkRandomTrace(t, 2*batchCap+5, int64(17+batchCap))
		for _, pos := range []int{0, batchCap / 2, batchCap - 1} {
			bad := batchCap + pos // inside the second batch
			for vname, victim := range victims {
				for _, c := range corruptions {
					ins[bad] = victim
					data := encode(t, "corrupt", ins)
					headerLen := len(data) - len(ins)*recordSize
					c.poke(data[headerLen+bad*recordSize:][:recordSize])

					wantName, want, wantErr := readReference(bytes.NewReader(data))
					if wantErr == nil || len(want) != bad || !strings.Contains(wantErr.Error(), c.diag) {
						t.Fatalf("cap=%d record %d %s %s: reference salvaged %d records with %v; want %d and %q",
							batchCap, bad, vname, c.name, len(want), wantErr, bad, c.diag)
					}
					requireSameRead(t, data, wantName, want, wantErr)

					dec, err := NewBatchDecoder(bytes.NewReader(data), batchCap)
					if err != nil {
						t.Fatal(err)
					}
					b := NewBatch(batchCap)
					var got []Inst
					for err == nil {
						err = dec.Next(&b)
						got = append(got, b.Ins...)
					}
					if err.Error() != wantErr.Error() {
						t.Fatalf("cap=%d record %d %s %s: diagnostic %v, want %v", batchCap, bad, vname, c.name, err, wantErr)
					}
					if len(b.Ins) != pos {
						t.Fatalf("cap=%d record %d %s %s: failing batch holds %d records, want the %d before the bad one",
							batchCap, bad, vname, c.name, len(b.Ins), pos)
					}
					requireSame(t, "BatchDecoder", got, want)
					if again := dec.Next(&b); again != err || len(b.Ins) != 0 {
						t.Fatalf("cap=%d record %d %s %s: next call returned %d records with %v, want none with the same error",
							batchCap, bad, vname, c.name, len(b.Ins), again)
					}
				}
			}
		}
	}
}

// TestFileSourceMatchesReadFileTolerant checks the streaming source's
// salvage semantics against the in-memory tolerant loader, for intact
// and truncated files, across both consumption styles and a Reset.
func TestFileSourceMatchesReadFileTolerant(t *testing.T) {
	ins := mkRandomTrace(t, 300, 5)
	data := encode(t, "stream", ins)
	dir := t.TempDir()

	for _, tc := range []struct {
		name      string
		bytes     []byte
		truncated bool
	}{
		{"whole", data, false},
		{"cut-mid-record", data[:len(data)-recordSize-7], true},
		{"cut-batch-boundary", data[:len(data)-236*recordSize], true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name+".zbpt")
			if err := os.WriteFile(path, tc.bytes, 0o644); err != nil {
				t.Fatal(err)
			}
			ref, refDiag, err := ReadFileTolerant(path)
			if err != nil {
				t.Fatal(err)
			}
			want := Collect(ref)

			src, err := OpenFileSource(path, 64)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if src.Name() != ref.Name() {
				t.Errorf("name %q, want %q", src.Name(), ref.Name())
			}
			for pass := 0; pass < 2; pass++ {
				got := Collect(src)
				if len(got) != len(want) {
					t.Fatalf("pass %d: %d records, want %d", pass, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("pass %d: record %d differs", pass, i)
					}
				}
				if tc.truncated {
					if src.Err() == nil || !errors.Is(src.Err(), ErrTruncated) {
						t.Fatalf("pass %d: Err() = %v, want ErrTruncated diagnostic", pass, src.Err())
					}
					if refDiag == nil {
						t.Fatalf("reference loader saw no damage")
					}
				} else if src.Err() != nil {
					t.Fatalf("pass %d: Err() = %v on intact file", pass, src.Err())
				}
				src.Reset()
			}

			// Batcher path: FillBatch drains the same sequence.
			b := NewBatch(17)
			var batched []Inst
			for src.FillBatch(&b) > 0 {
				batched = append(batched, b.Ins...)
			}
			if len(batched) != len(want) {
				t.Fatalf("FillBatch: %d records, want %d", len(batched), len(want))
			}
			for i := range want {
				if batched[i] != want[i] {
					t.Fatalf("FillBatch: record %d differs", i)
				}
			}
		})
	}
}

// TestFileSourceMixedConsumption interleaves Next with FillBatch and
// checks no record is reordered or dropped.
func TestFileSourceMixedConsumption(t *testing.T) {
	ins := mkRandomTrace(t, 100, 23)
	path := filepath.Join(t.TempDir(), "mixed.zbpt")
	if err := os.WriteFile(path, encode(t, "mixed", ins), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path, 16)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var got []Inst
	b := NewBatch(5)
	for i := 0; ; i++ {
		if i%2 == 0 {
			in, ok := src.Next()
			if !ok {
				break
			}
			got = append(got, in)
			continue
		}
		if src.FillBatch(&b) == 0 {
			break
		}
		got = append(got, b.Ins...)
	}
	if len(got) != len(ins) {
		t.Fatalf("%d records, want %d", len(got), len(ins))
	}
	for i := range ins {
		if got[i] != ins[i] {
			t.Fatalf("record %d reordered: %+v, want %+v", i, got[i], ins[i])
		}
	}
}

// TestFileSourceRefillSpans pins the source's span wiring: with a
// recorder attached, every refill — through Next or FillBatch, up to
// the one that finds the end of the trace — records one refill span
// under the given parent, and their record counts sum to the trace.
func TestFileSourceRefillSpans(t *testing.T) {
	ins := mkRandomTrace(t, 300, 31)
	path := filepath.Join(t.TempDir(), "spans.zbpt")
	if err := os.WriteFile(path, encode(t, "spans", ins), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenFileSource(path, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	tr := span.NewTrace()
	rec := tr.NewRecorder(1)
	const parent = span.ID(7)
	src.SetSpans(rec, parent)

	// Pass 1 through Next refills the source's 64-record batch; pass 2
	// through FillBatch decodes into a 50-record one. Each pass ends
	// with the refill that finds the end of the trace.
	refills := 0
	for n := 0; n <= len(ins); n++ {
		if _, ok := src.Next(); ok != (n < len(ins)) {
			t.Fatalf("Next %d: ok=%v", n, ok)
		}
	}
	refills += (len(ins)+63)/64 + 1
	src.Reset()
	b := NewBatch(50)
	for src.FillBatch(&b) > 0 {
		refills++
	}
	refills++

	tr.Adopt(rec)
	evs := tr.Events()
	if len(evs) != refills {
		t.Fatalf("%d spans for %d refills", len(evs), refills)
	}
	var records int64
	for _, ev := range evs {
		if ev.Kind != span.KindRefill || ev.Parent != parent {
			t.Errorf("span %+v: want a refill span under parent %d", ev, parent)
		}
		records += ev.Arg1
	}
	if want := int64(2 * len(ins)); records != want {
		t.Errorf("refill spans carry %d records over two passes, want %d", records, want)
	}
}

// TestBatchDecodeZeroAlloc pins the zero-allocation contract of the
// steady-state decode loop: once the decoder and batch exist, Next and
// FillBatch must not allocate.
func TestBatchDecodeZeroAlloc(t *testing.T) {
	ins := mkRandomTrace(t, 4096, 99)
	data := encode(t, "alloc", ins)
	br := bytes.NewReader(data)
	dec, err := NewBatchDecoder(br, 256)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(256)
	var loopErr error
	allocs := testing.AllocsPerRun(200, func() {
		switch err := dec.Next(&b); err {
		case nil:
		case io.EOF:
			if _, serr := br.Seek(dec.dataOff, io.SeekStart); serr != nil {
				loopErr = serr
				return
			}
			dec.Reset(br)
		default:
			loopErr = err
		}
	})
	if loopErr != nil {
		t.Fatal(loopErr)
	}
	if allocs != 0 {
		t.Errorf("BatchDecoder.Next allocates %.1f times per call in steady state, want 0", allocs)
	}

	src := NewSliceSource("alloc", ins)
	allocs = testing.AllocsPerRun(200, func() {
		if FillBatch(src, &b) == 0 {
			src.Reset()
		}
	})
	if allocs != 0 {
		t.Errorf("SliceSource.FillBatch allocates %.1f times per call in steady state, want 0", allocs)
	}

	path := filepath.Join(t.TempDir(), "alloc.zbpt")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	allocs = testing.AllocsPerRun(200, func() {
		if FillBatch(fs, &b) == 0 {
			fs.Reset()
		}
		if _, ok := fs.Next(); !ok {
			fs.Reset()
		}
	})
	if fs.Err() != nil {
		t.Fatal(fs.Err())
	}
	if allocs != 0 {
		t.Errorf("FileSource FillBatch+Next allocates %.1f times per call in steady state, want 0", allocs)
	}
}

// TestNextBatchSliceWindow pins the zero-copy contract of NextBatch on
// an in-memory source: every batch is a window of the source's own
// slice (no copy, so no memmove), capped at the batch capacity and
// unable to grow into the next window, and a pass allocates nothing.
func TestNextBatchSliceWindow(t *testing.T) {
	ins := mkRandomTrace(t, 1000, 5)
	src := NewSliceSource("window", ins)
	b := NewBatch(64)
	pos := 0
	for w := NextBatch(src, &b); len(w) > 0; w = NextBatch(src, &b) {
		if &w[0] != &ins[pos] {
			t.Fatalf("batch at record %d is a copy, not a window of the source", pos)
		}
		if len(w) > 64 || cap(w) != len(w) {
			t.Fatalf("batch at record %d has len %d cap %d, want len <= 64 and cap == len", pos, len(w), cap(w))
		}
		pos += len(w)
	}
	if pos != len(ins) {
		t.Fatalf("windows covered %d records, want %d", pos, len(ins))
	}
	allocs := testing.AllocsPerRun(200, func() {
		if len(NextBatch(src, &b)) == 0 {
			src.Reset()
		}
	})
	if allocs != 0 {
		t.Errorf("NextBatch on a SliceSource allocates %.1f times per call, want 0", allocs)
	}

	// Any other source fills the caller's batch.
	other := &nextOnly{src: NewSliceSource("other", ins)}
	w := NextBatch(other, &b)
	if len(w) != 64 || &w[0] != &b.Ins[0] || w[63] != ins[63] {
		t.Fatalf("a per-record source did not refill the batch: len %d", len(w))
	}
}

// TestRecordValidMatchesValidate pins the decoder's inline accept
// against Validate over every kind (and one past the last), every
// length 0-8, even and odd addresses, targets and hint branches
// (including a zero hint) and both directions: recordValid accepts a
// record exactly when Validate does.
func TestRecordValidMatchesValidate(t *testing.T) {
	addrs := []zaddr.Addr{0, 1, 0x1000, 0x1001, ^zaddr.Addr(0), ^zaddr.Addr(1)}
	for kind := Kind(0); kind <= numKinds; kind++ {
		for length := uint8(0); length <= 8; length++ {
			for _, addr := range addrs {
				for _, target := range addrs {
					for _, hint := range addrs {
						for _, taken := range []bool{false, true} {
							in := Inst{Addr: addr, Target: target, HintBranch: hint, Length: length, Kind: kind, Taken: taken}
							if got, want := recordValid(&in), in.Validate() == nil; got != want {
								t.Fatalf("%+v: recordValid %v, Validate accepts %v", in, got, want)
							}
						}
					}
				}
			}
		}
	}
}

// nextOnly hides every method but Source's.
type nextOnly struct{ src Source }

func (s *nextOnly) Name() string       { return s.src.Name() }
func (s *nextOnly) Next() (Inst, bool) { return s.src.Next() }
func (s *nextOnly) Reset()             { s.src.Reset() }

// FuzzBatchDecoder cross-checks the batch decoder, and Read which
// drains one, against the reference decoder on arbitrary bytes and
// batch capacities: same salvage prefix, same diagnostic string, no
// panics, no io sentinels leaking.
func FuzzBatchDecoder(f *testing.F) {
	valid := fuzzSeedTrace(f)
	f.Add(valid, uint8(1))
	f.Add(valid, uint8(3))
	f.Add(valid[:len(valid)-1], uint8(2))
	f.Add(valid[:len(valid)-recordSize-5], uint8(4))
	f.Add([]byte{}, uint8(0))
	f.Add([]byte("ZBPT"), uint8(9))
	f.Add(bytes.Repeat([]byte{0xff}, 64), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, capByte uint8) {
		batchCap := int(capByte)%64 + 1
		wantName, want, wantErr := readReference(bytes.NewReader(data))
		requireSameRead(t, data, wantName, want, wantErr)
		dec, err := NewBatchDecoder(bytes.NewReader(data), batchCap)
		if err != nil {
			if wantErr == nil {
				t.Fatalf("decoder rejected header the reference accepted: %v", err)
			}
			if err.Error() != wantErr.Error() {
				t.Fatalf("header diagnostics differ:\n  decoder:   %v\n  reference: %v", err, wantErr)
			}
			return
		}
		if dec.Name() != wantName {
			t.Fatalf("name %q, want %q", dec.Name(), wantName)
		}
		got, gotErr := drainDecoder(dec, batchCap)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("decoder err %v, reference err %v", gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("diagnostics differ:\n  decoder:   %v\n  reference: %v", gotErr, wantErr)
			}
			if !errors.Is(gotErr, ErrBadTrace) {
				t.Fatalf("error not classified as ErrBadTrace: %v", gotErr)
			}
			if errors.Is(gotErr, io.ErrUnexpectedEOF) || errors.Is(gotErr, io.EOF) {
				t.Fatalf("raw io sentinel leaked: %v", gotErr)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("salvaged %d records, reference salvaged %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
			}
		}
	})
}
