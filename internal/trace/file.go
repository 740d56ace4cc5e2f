package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"slices"

	"bulkpreload/internal/zaddr"
)

// Binary trace file format ("ZBPT", version 2):
//
//	header:  magic "ZBPT" | u16 version | u16 name length | name bytes |
//	         u64 record count
//	records: u64 addr | u64 target | u64 hint branch | u8 length |
//	         u8 kind | u8 flags
//
// flags bit 0 = taken, bit 1 = static-taken. All integers little-endian.
// The hint-branch field is nonzero only for PreloadHint records. The
// format exists so that generated workloads can be exported and
// re-consumed without regeneration (cmd/tracegen writes, ReadFile
// loads).

// The record's byte geometry and the flags byte's bit layout are both
// declared here and proven against the encoder/decoder by packlayout,
// so encodeRecord and decodeRecord cannot drift apart silently.
//
//zbp:layout record word:recordSize unit:byte addr:0..7 target:8..15 hint:16..23 length:24 kind:25 flags:26
//zbp:layout flags word:8 taken:0 staticTaken:1
const (
	fileMagic   = "ZBPT"
	fileVersion = 2
	recordSize  = 8 + 8 + 8 + 1 + 1 + 1 // addr, target, hint branch, length, kind, flags
)

// ErrBadTrace reports a structurally invalid trace file.
var ErrBadTrace = errors.New("trace: malformed trace file")

// ErrTruncated reports a trace that ends mid-stream: the header promised
// more bytes than the file holds (interrupted write, partial copy,
// filesystem damage). It always accompanies ErrBadTrace, so errors.Is
// works with either sentinel; the message carries the failing byte
// offset rather than a bare io.ErrUnexpectedEOF.
var ErrTruncated = errors.New("trace: truncated trace file")

// Write serializes all instructions from src to w in ZBPT format. It
// resets src and takes the header's record count from the source's
// Len() int method if it has one, or else from one counting pass and a
// second reset; it then streams the records a batch at a time, so its
// memory does not grow with the trace. A source that yields a different
// number of records than its header promised is an error.
func Write(w io.Writer, src Source) (int64, error) {
	src.Reset()
	b := NewBatch(0)
	var count int
	if l, ok := src.(interface{ Len() int }); ok {
		count = l.Len()
	} else {
		for n := FillBatch(src, &b); n > 0; n = FillBatch(src, &b) {
			count += n
		}
		src.Reset()
	}

	bw := bufio.NewWriter(w)
	var written int64
	if _, err := bw.WriteString(fileMagic); err != nil {
		return written, err
	}
	written += int64(len(fileMagic))
	var hdr [4]byte
	binary.LittleEndian.PutUint16(hdr[0:2], fileVersion)
	name := src.Name()
	if len(name) > 1<<16-1 {
		return written, fmt.Errorf("trace: name too long (%d bytes)", len(name))
	}
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(len(name)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return written, err
	}
	written += 4
	if _, err := bw.WriteString(name); err != nil {
		return written, err
	}
	written += int64(len(name))
	var cnt [8]byte
	binary.LittleEndian.PutUint64(cnt[:], uint64(count))
	if _, err := bw.Write(cnt[:]); err != nil {
		return written, err
	}
	written += 8
	// Pack a batch of records at a time into one reusable buffer and
	// hand each batch to the writer in a single call.
	buf := make([]byte, cap(b.Ins)*recordSize)
	streamed := 0
	for batch := NextBatch(src, &b); len(batch) > 0; batch = NextBatch(src, &b) {
		streamed += len(batch)
		out := buf[:len(batch)*recordSize]
		for i := range batch {
			encodeRecord(out[i*recordSize:][:recordSize], &batch[i])
		}
		if _, err := bw.Write(out); err != nil {
			return written, err
		}
		written += int64(len(out))
	}
	if streamed != count {
		return written, fmt.Errorf("trace: %s yielded %d records, its header promised %d", name, streamed, count)
	}
	return written, bw.Flush()
}

// WriteSlice serializes ins to w in ZBPT format under the given name.
func WriteSlice(w io.Writer, name string, ins []Inst) (int64, error) {
	return Write(w, NewSliceSource(name, ins))
}

// encodeRecord packs in into its wire image. rec must hold recordSize
// bytes (the caller bounds it).
//
//zbp:layout record pack
//zbp:layout flags pack
func encodeRecord(rec []byte, in *Inst) {
	binary.LittleEndian.PutUint64(rec[0:8], uint64(in.Addr))
	binary.LittleEndian.PutUint64(rec[8:16], uint64(in.Target))
	binary.LittleEndian.PutUint64(rec[16:24], uint64(in.HintBranch))
	rec[24] = in.Length
	rec[25] = uint8(in.Kind)
	var flags uint8
	if in.Taken {
		flags |= 1
	}
	if in.StaticTaken {
		flags |= 2
	}
	rec[26] = flags
}

// readHeader consumes and validates the ZBPT header from r, returning
// the trace name, the promised record count, and the number of header
// bytes consumed (the byte offset of the first record). It is shared by
// the one-shot Read and the streaming BatchDecoder so both report
// identical byte-offset diagnostics.
func readHeader(r io.Reader) (name string, n uint64, off int64, err error) {
	magic := make([]byte, len(fileMagic))
	if k, err := io.ReadFull(r, magic); err != nil {
		return "", 0, 0, fmt.Errorf("%w: %w: magic cut short at byte offset %d (want %d header bytes)",
			ErrBadTrace, ErrTruncated, off+int64(k), len(fileMagic))
	}
	if string(magic) != fileMagic {
		return "", 0, 0, fmt.Errorf("%w: bad magic %q", ErrBadTrace, magic)
	}
	off += int64(len(fileMagic))
	var hdr [4]byte
	if k, err := io.ReadFull(r, hdr[:]); err != nil {
		return "", 0, 0, fmt.Errorf("%w: %w: version/name header cut short at byte offset %d",
			ErrBadTrace, ErrTruncated, off+int64(k))
	}
	off += int64(len(hdr))
	if v := binary.LittleEndian.Uint16(hdr[0:2]); v != fileVersion {
		return "", 0, 0, fmt.Errorf("%w: unsupported version %d", ErrBadTrace, v)
	}
	nameLen := int(binary.LittleEndian.Uint16(hdr[2:4]))
	nameBytes := make([]byte, nameLen)
	if k, err := io.ReadFull(r, nameBytes); err != nil {
		return "", 0, 0, fmt.Errorf("%w: %w: name cut short at byte offset %d (want %d name bytes)",
			ErrBadTrace, ErrTruncated, off+int64(k), nameLen)
	}
	off += int64(nameLen)
	name = string(nameBytes)
	var cnt [8]byte
	if k, err := io.ReadFull(r, cnt[:]); err != nil {
		return name, 0, 0, fmt.Errorf("%w: %w: record count cut short at byte offset %d",
			ErrBadTrace, ErrTruncated, off+int64(k))
	}
	off += int64(len(cnt))
	n = binary.LittleEndian.Uint64(cnt[:])
	const maxRecords = 1 << 31
	if n > maxRecords {
		return name, 0, 0, fmt.Errorf("%w: implausible record count %d", ErrBadTrace, n)
	}
	return name, n, off, nil
}

// decodeRecord rebuilds in from its wire image. rec must hold
// recordSize bytes (the caller bounds it); no validation is performed
// here.
//
//zbp:layout record unpack
//zbp:layout flags unpack
func decodeRecord(rec []byte, in *Inst) {
	in.Addr = zaddr.Addr(binary.LittleEndian.Uint64(rec[0:8]))
	in.Target = zaddr.Addr(binary.LittleEndian.Uint64(rec[8:16]))
	in.HintBranch = zaddr.Addr(binary.LittleEndian.Uint64(rec[16:24]))
	in.Length = rec[24]
	in.Kind = Kind(rec[25])
	in.Taken = rec[26]&1 != 0
	in.StaticTaken = rec[26]&2 != 0
}

// errRecordCut reports record i of n ending early: off is the byte
// offset of the record's start, got the record bytes actually present.
func errRecordCut(i, n uint64, off int64, got int) error {
	return fmt.Errorf(
		"%w: %w: record %d of %d cut short at byte offset %d (%d of %d record bytes present)",
		ErrBadTrace, ErrTruncated, i, n, off+int64(got), got, recordSize)
}

// errRecordInvalid reports a structurally invalid record i starting at
// byte offset off.
func errRecordInvalid(i uint64, off int64, err error) error {
	return fmt.Errorf("%w: record %d at byte offset %d: %v", ErrBadTrace, i, off, err)
}

// Read deserializes a full ZBPT stream from r, validating every record.
// It drains a BatchDecoder straight into the result slice, so it shares
// the decoder's one decode loop and its byte-offset diagnostics.
//
// On error, the name and every record parsed before the failure are
// still returned alongside it, so callers that can live with a shorter
// trace (see ReadFileTolerant) may salvage the prefix. Truncation errors
// satisfy errors.Is(err, ErrTruncated) and report the byte offset where
// the stream gave out.
func Read(r io.Reader) (name string, ins []Inst, err error) {
	return read(r, -1)
}

// read is Read over a stream of size bytes, or of unknown size when
// size < 0.
func read(r io.Reader, size int64) (name string, ins []Inst, err error) {
	name, n, off, err := readHeader(r)
	if err != nil {
		return name, nil, err
	}
	dec := newBatchDecoder(r, name, n, off, DefaultBatchCapacity)
	// Preallocate from the header's promised count, but bounded: a
	// corrupt or hostile header must not commit more memory than the
	// stream can fill. A stream of known size is bounded by the records
	// its bytes hold, plus one slot in which the decoder meets a cut
	// tail without growing the slice, so a whole file loads into one
	// array of exactly its records. Any other stream is bounded by
	// 1<<20 records, past which the slice grows on demand (found by
	// FuzzBatchDecoder cross-checking this path).
	limit := uint64(1 << 20)
	if size >= 0 {
		limit = uint64(max(size-off, 0)/recordSize) + 1
	}
	ins = make([]Inst, 0, min(n, limit))
	for dec.Decoded() < n {
		if len(ins) == cap(ins) {
			ins = slices.Grow(ins, DefaultBatchCapacity)
		}
		// Decode into the spare capacity; the decoder bounds the batch
		// at DefaultBatchCapacity records.
		b := Batch{Ins: ins[len(ins):len(ins)]}
		err = dec.Next(&b)
		ins = ins[:len(ins)+len(b.Ins)]
		if err != nil {
			return name, ins, err
		}
	}
	return name, ins, nil
}

// WriteFile writes src to the named file in ZBPT format.
func WriteFile(path string, src Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := Write(f, src); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readFile is Read over f, of known size when f is a regular file.
func readFile(f *os.File) (name string, ins []Inst, err error) {
	size := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	return read(f, size)
}

// ReadFile loads the named ZBPT file as a SliceSource.
func ReadFile(path string) (*SliceSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	name, ins, err := readFile(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return NewSliceSource(name, ins), nil
}

// ReadFileTolerant loads the named ZBPT file, salvaging the valid record
// prefix when the tail is truncated or corrupt (a crashed tracegen, a
// partial copy). The returned source holds every record before the first
// bad byte; diag is non-nil exactly when records were dropped and
// carries Read's byte-offset diagnostic. A file damaged before any
// record could be parsed (bad magic, unsupported version, unreadable
// header) is not salvageable and is returned as an error with a nil
// source.
func ReadFileTolerant(path string) (src *SliceSource, diag error, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	name, ins, rerr := readFile(f)
	if rerr == nil {
		return NewSliceSource(name, ins), nil, nil
	}
	if len(ins) == 0 {
		return nil, nil, fmt.Errorf("%s: nothing salvageable: %w", path, rerr)
	}
	return NewSliceSource(name, ins), fmt.Errorf("%s: salvaged %d records: %w", path, len(ins), rerr), nil
}
