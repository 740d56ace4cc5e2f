package trace

import (
	"fmt"
	"io"
	"os"

	"bulkpreload/internal/obs/span"
)

// Batched decoding: the simulator's hot loop consumes instructions in
// fixed-capacity record batches instead of one interface call per
// record. A Batch is a reusable buffer (allocated once, refilled in
// place), so batch-driven runs are allocation-free in steady state;
// the AllocsPerRun tests in batch_test.go pin that contract.

// DefaultBatchCapacity is the record count of one decode batch. 1024
// records (~27 KB of wire format, 32 KB of 32-byte Inst) amortizes
// call and read overhead while staying comfortably inside the L2 cache
// of the worker core that replays the batch.
const DefaultBatchCapacity = 1024

// Batch is a fixed-capacity, reusable buffer of trace records. Ins
// holds the filled prefix; its capacity (fixed at NewBatch) bounds how
// many records one fill delivers. Refills reuse the backing array.
type Batch struct {
	Ins []Inst
}

// NewBatch returns an empty batch with the given capacity (<= 0 selects
// DefaultBatchCapacity).
func NewBatch(capacity int) Batch {
	if capacity <= 0 {
		capacity = DefaultBatchCapacity
	}
	return Batch{Ins: make([]Inst, 0, capacity)}
}

// Batcher is a Source that can refill whole batches directly, skipping
// the per-record Next dispatch.
type Batcher interface {
	Source
	// FillBatch refills b (discarding its previous contents) with up to
	// cap(b.Ins) records and returns how many were delivered; 0 means
	// end of stream.
	FillBatch(b *Batch) int
}

// FillBatch refills b from src: batch-capable sources fill directly,
// anything else falls back to a per-record Next loop. Returns the
// number of records delivered; 0 means end of stream.
func FillBatch(src Source, b *Batch) int {
	if bs, ok := src.(Batcher); ok {
		return bs.FillBatch(b)
	}
	b.Ins = b.Ins[:0]
	for len(b.Ins) < cap(b.Ins) {
		in, ok := src.Next()
		if !ok {
			break
		}
		b.Ins = append(b.Ins, in)
	}
	return len(b.Ins)
}

// NextBatch returns src's next records, at most cap(b.Ins) of them, as
// a read-only slice; an empty slice means end of stream. A SliceSource
// hands out a window of its own slice, so nothing is copied; any other
// source refills b through FillBatch. The result is valid until the
// next call and must not be written.
func NextBatch(src Source, b *Batch) []Inst {
	if s, ok := src.(*SliceSource); ok {
		n := min(cap(b.Ins), len(s.ins)-s.pos)
		w := s.ins[s.pos : s.pos+n : s.pos+n]
		s.pos += n
		return w
	}
	FillBatch(src, b)
	return b.Ins
}

// FillBatch implements Batcher with a single bulk copy from the
// in-memory slice.
func (s *SliceSource) FillBatch(b *Batch) int {
	n := cap(b.Ins)
	if rem := len(s.ins) - s.pos; n > rem {
		n = rem
	}
	b.Ins = append(b.Ins[:0], s.ins[s.pos:s.pos+n]...)
	s.pos += n
	return n
}

// BatchDecoder decodes a ZBPT stream batch-at-a-time: one bulk read of
// up to batchCap records per Next call, decoded into a caller-owned
// Batch with zero allocations in steady state. Byte-offset diagnostics
// (truncation, invalid records) are identical to Read's, so salvage
// tooling sees the same failure point whichever decoder found it.
type BatchDecoder struct {
	r       io.Reader
	name    string
	total   uint64 // records the header promises
	read    uint64 // records fully decoded so far
	off     int64  // byte offset of the next record
	dataOff int64  // byte offset of the first record (for Reset)
	buf     []byte // reusable bulk-read buffer, cap = batchCap * recordSize
	err     error  // sticky terminal decode error
}

// NewBatchDecoder consumes the ZBPT header from r and returns a decoder
// delivering at most batchCap records per Next call (<= 0 selects
// DefaultBatchCapacity). The caller keeps ownership of r.
func NewBatchDecoder(r io.Reader, batchCap int) (*BatchDecoder, error) {
	name, total, off, err := readHeader(r)
	if err != nil {
		return nil, err
	}
	return newBatchDecoder(r, name, total, off, batchCap), nil
}

// newBatchDecoder builds a decoder over r positioned after a header
// readHeader already consumed.
func newBatchDecoder(r io.Reader, name string, total uint64, off int64, batchCap int) *BatchDecoder {
	if batchCap <= 0 {
		batchCap = DefaultBatchCapacity
	}
	return &BatchDecoder{
		r:       r,
		name:    name,
		total:   total,
		off:     off,
		dataOff: off,
		buf:     make([]byte, 0, batchCap*recordSize),
	}
}

// Name returns the trace name from the header.
func (d *BatchDecoder) Name() string { return d.name }

// Decoded returns how many records have been fully decoded so far.
func (d *BatchDecoder) Decoded() uint64 { return d.read }

// Reset rewinds the decoder to the first record. The caller must have
// repositioned the byte stream to the same point (e.g. by seeking the
// file back to where the header ended); r replaces the decoder's
// reader so seekable and reopened streams both work.
func (d *BatchDecoder) Reset(r io.Reader) {
	d.r = r
	d.read = 0
	d.off = d.dataOff
	d.err = nil
}

// Next refills b (discarding its previous contents) with up to
// cap(b.Ins) records, bounded by the decoder's batch capacity. It
// returns io.EOF with an empty batch at the clean end of the stream.
// On truncation or a corrupt record the valid records decoded before
// the failure are left in b — callers may salvage them — and the
// returned error carries the same byte-offset diagnostics as Read;
// every later call returns the same error with an empty batch.
func (d *BatchDecoder) Next(b *Batch) error {
	b.Ins = b.Ins[:0]
	if d.err != nil {
		return d.err
	}
	if d.read >= d.total {
		return io.EOF
	}
	want := cap(b.Ins)
	if max := cap(d.buf) / recordSize; want > max {
		want = max
	}
	if rem := d.total - d.read; uint64(want) > rem {
		want = int(rem)
	}
	d.buf = d.buf[:want*recordSize]
	k, rferr := io.ReadFull(d.r, d.buf)
	// Decode in place: every whole record read lands straight in its
	// slot; a rejected one truncates the batch to the records before it.
	ins := b.Ins[:k/recordSize]
	buf := d.buf[:len(ins)*recordSize]
	for i := range ins {
		in := &ins[i]
		decodeRecord(buf[i*recordSize:][:recordSize], in)
		if !recordValid(in) {
			b.Ins = ins[:i]
			d.advance(i)
			d.err = errRecordInvalid(d.read, d.off, in.Validate())
			return d.err
		}
	}
	b.Ins = ins
	d.advance(len(ins))
	if rferr != nil {
		d.err = errRecordCut(d.read, d.total, d.off, k%recordSize)
		return d.err
	}
	return nil
}

// advance moves the decoder past n fully decoded records.
func (d *BatchDecoder) advance(n int) {
	d.read += uint64(n)
	d.off += int64(n) * recordSize
}

// The kinds Validate accepts with each direction, as bit sets over
// Kind: plain records and preload hints are never taken, and the
// always-taken kinds never resolve not-taken. No kind past the last
// has a bit.
const (
	notTakenKinds = 1<<NotBranch | 1<<CondDirect | 1<<IndirectOther | 1<<PreloadHint
	takenKinds    = 1<<CondDirect | 1<<UncondDirect | 1<<Call | 1<<Return | 1<<IndirectOther
)

// recordValid reports whether Validate accepts in, without building a
// diagnostic: a halfword-aligned record of length 2, 4 or 6 whose kind
// allows its direction; naming an aligned, nonzero hint branch exactly
// when it is a preload hint; with an aligned target when taken or a
// preload hint.
func recordValid(in *Inst) bool {
	kinds := notTakenKinds
	if in.Taken {
		kinds = takenKinds
	}
	return kinds>>in.Kind&1 != 0 && in.Addr%2 == 0 && 0x54>>in.Length&1 != 0 && // lengths 2, 4, 6
		in.HintBranch%2 == 0 && (in.HintBranch != 0) == (in.Kind == PreloadHint) &&
		(in.Target%2 == 0 || !in.Taken && in.Kind != PreloadHint)
}

// FileSource streams a ZBPT file through a reusable decode batch: the
// trace never materializes in memory (unlike ReadFile's SliceSource),
// so arbitrarily large trace files simulate in constant space. It
// implements Source and Batcher; engines that pull whole batches skip
// the per-record dispatch entirely.
//
// A truncated or corrupt tail ends the stream after the last valid
// record — ReadFileTolerant's salvage semantics — with the diagnostic
// available from Err after the pass.
type FileSource struct {
	f     *os.File
	dec   *BatchDecoder
	batch Batch
	pos   int   // next unread record in batch
	diag  error // terminal decode/seek error, nil on clean streams
	done  bool

	// spans, when set via SetSpans, records one KindRefill span per
	// batch refill (disk read + decode) under spanParent, attributing
	// pipeline stall time to trace I/O. Nil costs nothing.
	spans      *span.Recorder
	spanParent span.ID
}

// SetSpans attaches a span recorder to the source: every subsequent
// batch refill is recorded as a refill span under parent. The recorder
// must belong to the goroutine consuming the source (the shard worker);
// call with nil to detach.
func (s *FileSource) SetSpans(rec *span.Recorder, parent span.ID) {
	s.spans = rec
	s.spanParent = parent
}

// OpenFileSource opens path for streaming batched decode. batchCap <= 0
// selects DefaultBatchCapacity. Close releases the file handle.
func OpenFileSource(path string, batchCap int) (*FileSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	dec, err := NewBatchDecoder(f, batchCap)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &FileSource{f: f, dec: dec, batch: NewBatch(batchCap)}, nil
}

// Name implements Source.
func (s *FileSource) Name() string { return s.dec.Name() }

// Next implements Source, serving records out of the current batch and
// refilling when it drains.
func (s *FileSource) Next() (Inst, bool) {
	if s.pos >= len(s.batch.Ins) && !s.refill() {
		return Inst{}, false
	}
	in := s.batch.Ins[s.pos]
	s.pos++
	return in, true
}

// refill pulls the next batch from the decoder; decode errors end the
// stream after the salvaged records and are reported via Err.
func (s *FileSource) refill() bool {
	if s.done {
		return false
	}
	s.pos = 0
	sp := s.spans.Start(span.KindRefill, "refill", s.spanParent)
	err := s.dec.Next(&s.batch)
	sp.EndArgs(int64(len(s.batch.Ins)), 0)
	if err != nil {
		if err != io.EOF {
			s.diag = err
		}
		s.done = len(s.batch.Ins) == 0
	}
	return len(s.batch.Ins) > 0
}

// FillBatch implements Batcher. With no buffered remainder it decodes
// straight into b; otherwise it drains the remainder first so mixed
// Next/FillBatch consumers never reorder records.
func (s *FileSource) FillBatch(b *Batch) int {
	if rem := len(s.batch.Ins) - s.pos; rem > 0 {
		n := cap(b.Ins)
		if n > rem {
			n = rem
		}
		b.Ins = append(b.Ins[:0], s.batch.Ins[s.pos:s.pos+n]...)
		s.pos += n
		return n
	}
	b.Ins = b.Ins[:0]
	if s.done {
		return 0
	}
	sp := s.spans.Start(span.KindRefill, "refill", s.spanParent)
	err := s.dec.Next(b)
	sp.EndArgs(int64(len(b.Ins)), 0)
	if err != nil {
		if err != io.EOF {
			s.diag = err
		}
		s.done = len(b.Ins) == 0
	}
	return len(b.Ins)
}

// Reset implements Source, rewinding to the first record.
func (s *FileSource) Reset() {
	s.batch.Ins = s.batch.Ins[:0]
	s.pos = 0
	s.done = false
	s.diag = nil
	if _, err := s.f.Seek(s.dec.dataOff, io.SeekStart); err != nil {
		s.diag = err
		s.done = true
		return
	}
	s.dec.Reset(s.f)
}

// Err returns the terminal decode error of the current pass, nil when
// the stream ended cleanly (or has not ended yet).
func (s *FileSource) Err() error { return s.diag }

// Close releases the underlying file.
func (s *FileSource) Close() error { return s.f.Close() }
