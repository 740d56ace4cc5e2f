package trace

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"bulkpreload/internal/zaddr"
)

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		NotBranch:     "not-branch",
		CondDirect:    "cond-direct",
		UncondDirect:  "uncond-direct",
		Call:          "call",
		Return:        "return",
		IndirectOther: "indirect",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), want)
		}
	}
	if Kind(99).String() != "Kind(99)" {
		t.Errorf("unknown kind string = %q", Kind(99).String())
	}
}

func TestKindPredicates(t *testing.T) {
	if NotBranch.IsBranch() {
		t.Error("NotBranch.IsBranch() = true")
	}
	for _, k := range []Kind{CondDirect, UncondDirect, Call, Return, IndirectOther} {
		if !k.IsBranch() {
			t.Errorf("%v.IsBranch() = false", k)
		}
	}
	for _, k := range []Kind{UncondDirect, Call, Return} {
		if !k.AlwaysTaken() {
			t.Errorf("%v.AlwaysTaken() = false", k)
		}
	}
	if CondDirect.AlwaysTaken() || IndirectOther.AlwaysTaken() {
		t.Error("conditional kinds reported always-taken")
	}
}

func TestInstFlow(t *testing.T) {
	br := Inst{Addr: 0x1000, Length: 4, Kind: CondDirect, Taken: true, Target: 0x2000}
	if br.FallThrough() != 0x1004 {
		t.Errorf("FallThrough = %#x", uint64(br.FallThrough()))
	}
	if br.NextAddr() != 0x2000 {
		t.Errorf("NextAddr (taken) = %#x", uint64(br.NextAddr()))
	}
	br.Taken = false
	if br.NextAddr() != 0x1004 {
		t.Errorf("NextAddr (not taken) = %#x", uint64(br.NextAddr()))
	}
	plain := Inst{Addr: 0x1000, Length: 6, Kind: NotBranch}
	if plain.NextAddr() != 0x1006 {
		t.Errorf("NextAddr (non-branch) = %#x", uint64(plain.NextAddr()))
	}
}

func TestInstValidate(t *testing.T) {
	good := Inst{Addr: 0x1000, Length: 4, Kind: CondDirect, Taken: true, Target: 0x2000}
	if err := good.Validate(); err != nil {
		t.Errorf("valid inst rejected: %v", err)
	}
	cases := []struct {
		name string
		in   Inst
	}{
		{"bad length", Inst{Addr: 0x1000, Length: 3, Kind: NotBranch}},
		{"odd address", Inst{Addr: 0x1001, Length: 4, Kind: NotBranch}},
		{"bad kind", Inst{Addr: 0x1000, Length: 4, Kind: Kind(42)}},
		{"taken non-branch", Inst{Addr: 0x1000, Length: 4, Kind: NotBranch, Taken: true}},
		{"not-taken call", Inst{Addr: 0x1000, Length: 4, Kind: Call, Taken: false}},
		{"odd target", Inst{Addr: 0x1000, Length: 4, Kind: CondDirect, Taken: true, Target: 0x2001}},
	}
	for _, c := range cases {
		if err := c.in.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid record", c.name)
		}
	}
}

func TestSliceSource(t *testing.T) {
	ins := []Inst{
		{Addr: 0x100, Length: 4, Kind: NotBranch},
		{Addr: 0x104, Length: 2, Kind: CondDirect, Taken: true, Target: 0x100},
	}
	s := NewSliceSource("test", ins)
	if s.Name() != "test" || s.Len() != 2 {
		t.Fatalf("bad name/len: %q %d", s.Name(), s.Len())
	}
	for pass := 0; pass < 3; pass++ {
		got := 0
		for {
			in, ok := s.Next()
			if !ok {
				break
			}
			if in != ins[got] {
				t.Fatalf("pass %d record %d mismatch", pass, got)
			}
			got++
		}
		if got != 2 {
			t.Fatalf("pass %d yielded %d records", pass, got)
		}
		s.Reset()
	}

	// A fork starts at the beginning, keeps its own position and reads
	// the same records, not a copy.
	s.Next()
	f := s.Fork()
	if in, ok := f.Next(); !ok || in != ins[0] || f.Name() != "test" {
		t.Fatalf("fork's first record %+v (ok %v, name %q), want %+v", in, ok, f.Name(), ins[0])
	}
	if in, ok := s.Next(); !ok || in != ins[1] {
		t.Fatalf("source moved by its fork: next %+v, want %+v", in, ins[1])
	}
	if &f.ins[0] != &ins[0] {
		t.Fatal("fork copied the records")
	}
}

func synthInsts(r *rand.Rand, n int) []Inst {
	ins := make([]Inst, n)
	addr := zaddr.Addr(0x10000)
	for i := range ins {
		lengths := []uint8{2, 4, 6}
		l := lengths[r.Intn(3)]
		in := Inst{Addr: addr, Length: l}
		if r.Intn(4) == 0 {
			in.Kind = Kind(1 + r.Intn(int(numKinds)-1))
			if in.Kind == PreloadHint {
				in.HintBranch = zaddr.Addr(0x10000 + 2*uint64(r.Intn(1<<16)))
				in.Target = zaddr.Addr(0x10000 + 2*uint64(r.Intn(1<<16)))
			} else {
				in.Taken = in.Kind.AlwaysTaken() || r.Intn(2) == 0
				if in.Taken {
					in.Target = zaddr.Addr(0x10000 + 2*uint64(r.Intn(1<<16)))
				}
				in.StaticTaken = r.Intn(2) == 0
			}
		}
		ins[i] = in
		addr = in.NextAddr()
		if !in.IsBranch() || !in.Taken {
			addr = in.FallThrough()
		}
	}
	return ins
}

func TestFileRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ins := synthInsts(r, 500)
	var buf bytes.Buffer
	if _, err := WriteSlice(&buf, "round-trip", ins); err != nil {
		t.Fatalf("WriteSlice: %v", err)
	}
	name, got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if name != "round-trip" {
		t.Errorf("name = %q", name)
	}
	if len(got) != len(ins) {
		t.Fatalf("len = %d, want %d", len(got), len(ins))
	}
	for i := range got {
		if got[i] != ins[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got[i], ins[i])
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	f := func(seed int64, nRaw uint16) bool {
		n := int(nRaw)%200 + 1
		ins := synthInsts(rand.New(rand.NewSource(seed)), n)
		var buf bytes.Buffer
		if _, err := WriteSlice(&buf, "p", ins); err != nil {
			return false
		}
		_, got, err := Read(&buf)
		if err != nil || len(got) != len(ins) {
			return false
		}
		for i := range got {
			if got[i] != ins[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFileOnDisk(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.zbpt")
	ins := synthInsts(rand.New(rand.NewSource(1)), 100)
	if err := WriteFile(path, NewSliceSource("disk", ins)); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	src, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if src.Name() != "disk" || src.Len() != 100 {
		t.Errorf("got %q/%d", src.Name(), src.Len())
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("NOPE"),
		[]byte("ZBPT"),                 // truncated header
		[]byte("ZBPT\x63\x00\x00\x00"), // wrong version
		append([]byte("ZBPT\x01\x00\x00\x00"), 0xFF), // truncated count
	}
	for i, c := range cases {
		if _, _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: Read accepted garbage", i)
		}
	}
}

func TestMeasure(t *testing.T) {
	ins := []Inst{
		{Addr: 0x1000, Length: 4, Kind: NotBranch},
		{Addr: 0x1004, Length: 4, Kind: CondDirect, Taken: true, Target: 0x1000},
		{Addr: 0x1000, Length: 4, Kind: NotBranch},
		{Addr: 0x1004, Length: 4, Kind: CondDirect, Taken: false, Target: 0x1000},
		{Addr: 0x1008, Length: 2, Kind: Call, Taken: true, Target: 0x9000},
		{Addr: 0x9000, Length: 4, Kind: Return, Taken: true, Target: 0x100A},
		// Same call site, different target => changing target.
		{Addr: 0x1008, Length: 2, Kind: Call, Taken: true, Target: 0x9000},
		{Addr: 0x9000, Length: 4, Kind: Return, Taken: true, Target: 0x200A},
	}
	st := Measure(NewSliceSource("m", ins))
	if st.Instructions != 8 {
		t.Errorf("Instructions = %d", st.Instructions)
	}
	if st.Branches != 6 {
		t.Errorf("Branches = %d", st.Branches)
	}
	if st.TakenBr != 5 {
		t.Errorf("TakenBr = %d", st.TakenBr)
	}
	if st.UniqueBranches != 3 {
		t.Errorf("UniqueBranches = %d, want 3", st.UniqueBranches)
	}
	if st.UniqueTaken != 3 {
		t.Errorf("UniqueTaken = %d, want 3", st.UniqueTaken)
	}
	if st.ChangingTarget != 1 {
		t.Errorf("ChangingTarget = %d, want 1", st.ChangingTarget)
	}
	if st.Blocks4K != 2 {
		t.Errorf("Blocks4K = %d, want 2", st.Blocks4K)
	}
	if st.LargeFootprint() {
		t.Error("tiny trace classified as large footprint")
	}
	if st.TakenRate() != 5.0/6.0 {
		t.Errorf("TakenRate = %v", st.TakenRate())
	}
	if st.BranchDensity() != 6.0/8.0 {
		t.Errorf("BranchDensity = %v", st.BranchDensity())
	}
	if st.String() == "" {
		t.Error("empty String()")
	}
}

func TestTopBlocks(t *testing.T) {
	var ins []Inst
	// Block 2 hottest, then block 5, then block 9.
	for i := 0; i < 30; i++ {
		ins = append(ins, Inst{Addr: 2*4096 + zaddr.Addr(4*(i%10)), Length: 4, Kind: NotBranch})
	}
	for i := 0; i < 20; i++ {
		ins = append(ins, Inst{Addr: 5*4096 + zaddr.Addr(4*(i%10)), Length: 4, Kind: NotBranch})
	}
	for i := 0; i < 10; i++ {
		ins = append(ins, Inst{Addr: 9*4096 + zaddr.Addr(4*(i%10)), Length: 4, Kind: NotBranch})
	}
	top := TopBlocks(NewSliceSource("tb", ins), 2)
	if len(top) != 2 || top[0] != 2 || top[1] != 5 {
		t.Errorf("TopBlocks = %v", top)
	}
}

func TestCollect(t *testing.T) {
	ins := synthInsts(rand.New(rand.NewSource(3)), 3000)
	// A Batcher fills by batch; a plain Source through Next.
	for _, s := range []Source{NewSliceSource("c", ins), &nextOnly{NewSliceSource("c", ins)}} {
		// Partially drain, then Collect must still return everything.
		s.Next()
		s.Next()
		if got := Collect(s); !slices.Equal(got, ins) {
			t.Fatalf("%T: Collect returned %d records, not the %d of the source", s, len(got), len(ins))
		}
	}
}

// lenSource is a Next-only source that reports a fixed Len, true or not.
type lenSource struct {
	nextOnly
	n int
}

func (s *lenSource) Len() int { return s.n }

// writeSources returns ins behind each shape Write handles: a Batcher
// with Len (SliceSource), a Next-only source without Len, and a Batcher
// without Len (FileSource over a file holding ins).
func writeSources(t *testing.T, name string, ins []Inst) []Source {
	t.Helper()
	path := filepath.Join(t.TempDir(), "w.zbpt")
	if err := os.WriteFile(path, encode(t, name, ins), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := OpenFileSource(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fs.Close() })
	return []Source{NewSliceSource(name, ins), &nextOnly{NewSliceSource(name, ins)}, fs}
}

// TestWriteStreams: Write's bytes equal WriteSlice over the collected
// records for every source shape, partially drained or not, and
// re-encode the committed wire pin byte for byte.
func TestWriteStreams(t *testing.T) {
	pin, err := os.ReadFile(wirePin)
	if err != nil {
		t.Fatal(err)
	}
	pinName, pinIns, err := Read(bytes.NewReader(pin))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 1, DefaultBatchCapacity, 3*DefaultBatchCapacity + 17} {
		ins := synthInsts(rand.New(rand.NewSource(int64(n))), n)
		for _, src := range writeSources(t, "stream", ins) {
			src.Next()
			var got bytes.Buffer
			wn, err := Write(&got, src)
			if err != nil {
				t.Fatalf("n=%d %T: Write: %v", n, src, err)
			}
			want := encode(t, "stream", Collect(src))
			if !bytes.Equal(got.Bytes(), want) || wn != int64(len(want)) {
				t.Fatalf("n=%d %T: Write produced %d bytes (reported %d), not the %d of WriteSlice(Collect)",
					n, src, got.Len(), wn, len(want))
			}
		}
	}
	for _, src := range writeSources(t, pinName, pinIns) {
		var got bytes.Buffer
		if _, err := Write(&got, src); err != nil {
			t.Fatalf("%T: Write: %v", src, err)
		}
		if !bytes.Equal(got.Bytes(), pin) {
			t.Fatalf("%T: Write of the wire pin's records differs from the pin", src)
		}
	}
}

// TestWriteRejectsMiscount: a header is written before the records, so
// a source yielding more or fewer records than its Len promised fails.
func TestWriteRejectsMiscount(t *testing.T) {
	ins := synthInsts(rand.New(rand.NewSource(5)), 2*DefaultBatchCapacity)
	for _, n := range []int{0, 1, len(ins) - 1, len(ins) + 1} {
		src := &lenSource{nextOnly{NewSliceSource("lie", ins)}, n}
		if _, err := Write(io.Discard, src); err == nil {
			t.Errorf("Len %d over %d records: Write succeeded", n, len(ins))
		}
	}
}

// TestWriteMemoryFlat: Write streams, so neither its allocation count
// nor its allocated bytes grow with the trace (Collect would take 32 B
// per record). MemStats counts the whole process, so each figure is the
// least of five writes, which drops a runtime allocation landing in one.
func TestWriteMemoryFlat(t *testing.T) {
	measure := func(src Source) (mallocs, allocated uint64) {
		mallocs, allocated = math.MaxUint64, math.MaxUint64
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := Write(io.Discard, src); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			mallocs = min(mallocs, after.Mallocs-before.Mallocs)
			allocated = min(allocated, after.TotalAlloc-before.TotalAlloc)
		}
		return mallocs, allocated
	}
	short := synthInsts(rand.New(rand.NewSource(1)), 2*DefaultBatchCapacity)
	long := synthInsts(rand.New(rand.NewSource(2)), 64*DefaultBatchCapacity)
	shorts, longs := writeSources(t, "short", short), writeSources(t, "long", long)
	for i := range shorts {
		sa, sb := measure(shorts[i])
		la, lb := measure(longs[i])
		if la > sa || lb > sb+sb/4 {
			t.Errorf("%T: %d records take %d allocs / %d B, %d records %d / %d B",
				shorts[i], len(short), sa, sb, len(long), la, lb)
		}
	}
}

// TestReadNeverPanics feeds random byte soup (and mutated valid files)
// into Read: malformed input must produce errors, never panics.
func TestReadNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	// A valid file to mutate.
	valid := func() []byte {
		var buf bytes.Buffer
		if _, err := WriteSlice(&buf, "fuzz", synthInsts(r, 40)); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}()
	check := func(data []byte) {
		defer func() {
			if p := recover(); p != nil {
				t.Fatalf("Read panicked on %d bytes: %v", len(data), p)
			}
		}()
		Read(bytes.NewReader(data))
	}
	for i := 0; i < 200; i++ {
		// Pure garbage of random length.
		garbage := make([]byte, r.Intn(200))
		r.Read(garbage)
		check(garbage)
		// Valid file with a few corrupted bytes.
		mut := append([]byte(nil), valid...)
		for k := 0; k < 1+r.Intn(4); k++ {
			mut[r.Intn(len(mut))] ^= byte(1 + r.Intn(255))
		}
		check(mut)
		// Truncations.
		check(valid[:r.Intn(len(valid))])
	}
}

// TestWriteSliceNameTooLong exercises the header bound.
func TestWriteSliceNameTooLong(t *testing.T) {
	var buf bytes.Buffer
	long := strings.Repeat("x", 1<<16)
	if _, err := WriteSlice(&buf, long, nil); err == nil {
		t.Error("oversized name accepted")
	}
}
