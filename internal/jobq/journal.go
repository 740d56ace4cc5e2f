// Package jobq is the crash-safe persistence core of the zsimd
// simulation service: a write-ahead journaled job queue with bounded
// depth, retry/backoff/dead-letter semantics, and per-tenant admission
// control.
//
// Durability model, in order of the guarantees the service needs:
//
//  1. An acknowledged Enqueue survives kill -9: every journal append is
//     framed (length + CRC32 + payload), written, and fsynced before
//     the call returns. The journal is append-only between restarts,
//     so a crash can only ever tear the final record.
//  2. Recovery is total: Open replays the journal, tolerating a torn
//     tail the way trace.ReadFileTolerant tolerates a truncated trace
//     — the intact prefix is recovered and the damage is reported as a
//     typed error (ErrTruncated with the byte offset) instead of a
//     refusal to start. Jobs that were running at the crash go back to
//     pending, carrying their checkpoint so the engine resumes
//     mid-trace instead of restarting.
//  3. The journal is compacted on every Open: the replayed state is
//     rewritten as one snapshot record per job (temp file, fsync,
//     rename, directory fsync — the engine checkpoint idiom), so
//     journal growth is bounded by live state, not history.
package jobq

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// bufferedReader wraps journal reads (replay is sequential and chatty).
func bufferedReader(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 64<<10) }

// journalMagic identifies a jobq journal; the trailing byte is the
// format version.
const journalMagic = "ZBPJ\x01"

// frameSize is the fixed per-record frame header: a u32 little-endian
// payload length followed by the u32 CRC32 (IEEE) of the payload.
// TestFrameLayout (layout_test.go) checks the writer (appendRecord)
// and the reader (replayJournal) against this layout, so the two
// framing codecs cannot drift apart.
const frameSize = 8

// maxRecordBytes bounds one journal record. Payloads are job specs and
// results (kilobytes); anything larger is a corrupt length field, and
// refusing it keeps a flipped length bit from allocating gigabytes.
const maxRecordBytes = 16 << 20

// ErrTruncated reports a journal that ends mid-record: a crash tore the
// final append. Recovery salvages every complete record before the
// tear; errors.Is(err, ErrTruncated) identifies the condition and the
// wrapping error carries the byte offset where the intact prefix ends.
var ErrTruncated = errors.New("jobq: truncated journal")

// ErrCorrupt reports a record whose checksum does not match its
// payload — bit rot or an interleaved write, not a clean tear. The
// intact prefix is still salvaged.
var ErrCorrupt = errors.New("jobq: corrupt journal record")

// op enumerates journal record types. Values are part of the on-disk
// format.
const (
	opEnqueue    = "enqueue"    // a new job entered the queue
	opStart      = "start"      // a worker began (or re-began) the job
	opCheckpoint = "checkpoint" // a ZBPC checkpoint for the job reached disk
	opDone       = "done"       // the job finished; payload carries the result
	opFail       = "fail"       // an attempt failed; job returns to pending
	opDead       = "dead"       // attempts exhausted; job is dead-lettered
	opRelease    = "release"    // a graceful shutdown returned the job to pending
	opSnapshot   = "job"        // compaction: one job's full current state
)

// record is one journal entry. Exactly the fields the op needs are set.
type record struct {
	Op string `json:"op"`
	ID string `json:"id,omitempty"`

	// Enqueue fields.
	Tenant  string          `json:"tenant,omitempty"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Seq     int64           `json:"seq,omitempty"`

	Attempt      int             `json:"attempt,omitempty"`      // start/fail
	Instructions int64           `json:"instructions,omitempty"` // checkpoint
	Error        string          `json:"error,omitempty"`        // fail/dead
	Result       json.RawMessage `json:"result,omitempty"`       // done

	// Snapshot (compaction) payload: the job's full state.
	Job *Job `json:"job,omitempty"`
}

// appendRecord frames and writes one record: u32 little-endian payload
// length, u32 CRC32 (IEEE) of the payload, payload bytes. The caller
// owns syncing.
func appendRecord(w io.Writer, rec *record) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("jobq: encoding %s record: %w", rec.Op, err)
	}
	var hdr [frameSize]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("jobq: writing record header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("jobq: writing record payload: %w", err)
	}
	return nil
}

// replayJournal reads a journal stream and applies every intact record
// to a fresh queue state. It mirrors trace.ReadFileTolerant: the intact
// prefix always comes back, and damage is reported as a typed error —
// ErrTruncated for a clean tear at the tail, ErrCorrupt for a checksum
// mismatch — wrapped with the byte offset where salvage stopped. A
// journal missing its magic header entirely is rejected (that is a
// wrong file, not a torn one).
func replayJournal(r io.Reader) (*state, int64, error) {
	hdr := make([]byte, len(journalMagic))
	if n, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			// Even the magic was torn — salvage is the empty queue.
			return newState(), 0, fmt.Errorf("jobq: journal header torn after %d bytes: %w", n, ErrTruncated)
		}
		return nil, 0, fmt.Errorf("jobq: reading journal header: %w", err)
	}
	if string(hdr) != journalMagic {
		return nil, 0, fmt.Errorf("jobq: not a job journal (bad magic %q)", hdr)
	}

	st := newState()
	off := int64(len(journalMagic))
	var frame [frameSize]byte
	//zbp:bounded terminates when the journal stream hits EOF or a damaged record
	for {
		if n, err := io.ReadFull(r, frame[:]); err != nil {
			if errors.Is(err, io.EOF) && n == 0 {
				return st, off, nil // clean end
			}
			return st, off, fmt.Errorf("jobq: record header torn at offset %d: %w", off, ErrTruncated)
		}
		length := binary.LittleEndian.Uint32(frame[0:4])
		sum := binary.LittleEndian.Uint32(frame[4:8])
		if length > maxRecordBytes {
			return st, off, fmt.Errorf("jobq: record at offset %d claims %d bytes (max %d): %w",
				off, length, maxRecordBytes, ErrCorrupt)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(r, payload); err != nil {
			return st, off, fmt.Errorf("jobq: record payload torn at offset %d: %w", off, ErrTruncated)
		}
		if crc32.ChecksumIEEE(payload) != sum {
			return st, off, fmt.Errorf("jobq: checksum mismatch at offset %d: %w", off, ErrCorrupt)
		}
		var rec record
		if err := json.Unmarshal(payload, &rec); err != nil {
			return st, off, fmt.Errorf("jobq: undecodable record at offset %d: %v: %w", off, err, ErrCorrupt)
		}
		if err := st.apply(&rec); err != nil {
			return st, off, fmt.Errorf("jobq: record at offset %d: %v: %w", off, err, ErrCorrupt)
		}
		off += frameSize + int64(length)
	}
}

// state is the in-memory queue image a journal replay produces.
type state struct {
	jobs    map[string]*Job
	order   []string // IDs in first-appearance order (stable scheduling)
	nextSeq int64
}

func newState() *state {
	return &state{jobs: make(map[string]*Job), nextSeq: 1}
}

// apply folds one journal record into the state. Errors mean the
// journal semantics are violated (e.g. a start for an unknown job) —
// corruption that passed the checksum, or a format bug.
func (st *state) apply(rec *record) error {
	switch rec.Op {
	case opEnqueue:
		if rec.ID == "" {
			return errors.New("enqueue without id")
		}
		if _, dup := st.jobs[rec.ID]; dup {
			return fmt.Errorf("duplicate enqueue %q", rec.ID)
		}
		st.jobs[rec.ID] = &Job{
			ID: rec.ID, Tenant: rec.Tenant, Payload: rec.Payload,
			Seq: rec.Seq, State: StatePending,
		}
		st.order = append(st.order, rec.ID)
		if rec.Seq >= st.nextSeq {
			st.nextSeq = rec.Seq + 1
		}
	case opSnapshot:
		if rec.Job == nil || rec.Job.ID == "" {
			return errors.New("snapshot without job")
		}
		if _, dup := st.jobs[rec.Job.ID]; dup {
			return fmt.Errorf("duplicate snapshot %q", rec.Job.ID)
		}
		j := *rec.Job
		st.jobs[j.ID] = &j
		st.order = append(st.order, j.ID)
		if j.Seq >= st.nextSeq {
			st.nextSeq = j.Seq + 1
		}
	case opStart:
		j, err := st.lookup(rec)
		if err != nil {
			return err
		}
		j.State = StateRunning
		j.Attempt = rec.Attempt
	case opCheckpoint:
		j, err := st.lookup(rec)
		if err != nil {
			return err
		}
		j.CheckpointAt = rec.Instructions
	case opDone:
		j, err := st.lookup(rec)
		if err != nil {
			return err
		}
		j.State = StateDone
		j.Result = rec.Result
		j.Error = ""
	case opFail:
		j, err := st.lookup(rec)
		if err != nil {
			return err
		}
		j.State = StatePending
		j.Attempt = rec.Attempt
		j.Error = rec.Error
		j.Retries++
	case opDead:
		j, err := st.lookup(rec)
		if err != nil {
			return err
		}
		j.State = StateDead
		j.Error = rec.Error
	case opRelease:
		j, err := st.lookup(rec)
		if err != nil {
			return err
		}
		j.State = StatePending
		j.Released++
	default:
		return fmt.Errorf("unknown op %q", rec.Op)
	}
	return nil
}

// total tallies every job.
func (st *state) total() (c Counts) {
	for _, j := range st.jobs {
		c = c.with(j)
	}
	return c
}

func (st *state) lookup(rec *record) (*Job, error) {
	j, ok := st.jobs[rec.ID]
	if !ok {
		return nil, fmt.Errorf("%s for unknown job %q", rec.Op, rec.ID)
	}
	return j, nil
}

// writeCompacted writes the state as a fresh journal at path via the
// atomic temp+fsync+rename+dirsync sequence. Each live job becomes one
// snapshot record, in first-appearance order.
//
//zbp:durable
func writeCompacted(path string, st *state) error {
	dir, base := splitPath(path)
	f, err := os.CreateTemp(dir, base+".tmp*")
	if err != nil {
		return fmt.Errorf("jobq: creating compaction temp file: %w", err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if _, err := io.WriteString(f, journalMagic); err != nil {
		return fail(fmt.Errorf("jobq: writing journal header: %w", err))
	}
	for _, id := range st.order {
		j := *st.jobs[id]
		if err := appendRecord(f, &record{Op: opSnapshot, Job: &j}); err != nil {
			return fail(err)
		}
	}
	if err := f.Sync(); err != nil {
		return fail(fmt.Errorf("jobq: syncing compacted journal: %w", err))
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobq: closing compacted journal: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("jobq: installing compacted journal: %w", err)
	}
	return syncDir(dir)
}

func splitPath(path string) (dir, base string) {
	for i := len(path) - 1; i >= 0; i-- {
		if os.IsPathSeparator(path[i]) {
			return path[:i], path[i+1:]
		}
	}
	return ".", path
}

// syncDir makes renamed/created directory entries durable (see
// engine.SyncDir; duplicated here so jobq does not pull in the engine).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("jobq: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("jobq: syncing directory %s: %w", dir, err)
	}
	return nil
}
