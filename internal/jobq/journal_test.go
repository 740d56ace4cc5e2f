package jobq

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// buildJournal produces a realistic journal via the public API: three
// jobs across the whole lifecycle (done with result, dead-lettered,
// running with a checkpoint marker).
func buildJournal(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	q, _, err := Open(dir, Options{MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, _ := q.Enqueue("acme", json.RawMessage(`{"trace":"tpf-airline"}`))
	b, _ := q.Enqueue("globex", json.RawMessage(`{"trace":"zos-lspr-ims"}`))
	c, _ := q.Enqueue("acme", json.RawMessage(`{"trace":"zos-trade6"}`))
	ctx := context.Background()
	if _, err := q.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := q.Done(a.ID, json.RawMessage(`{"cpi":0.91}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if _, _, err := q.Fail(b.ID, "poisoned"); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := q.MarkCheckpoint(c.ID, 80_000); err != nil {
		t.Fatal(err)
	}
	q.Close()
	data, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestReplayTruncatedAtEveryOffset is the crash-recovery property test:
// for EVERY byte offset k, replaying the first k bytes of a valid
// journal either succeeds cleanly (k lands on a record boundary) or
// reports ErrTruncated — never a panic, never ErrCorrupt, never a
// silent half-applied record. The salvaged prefix must be monotone:
// longer prefixes never recover fewer jobs.
func TestReplayTruncatedAtEveryOffset(t *testing.T) {
	data := buildJournal(t)
	if len(data) < 100 {
		t.Fatalf("journal only %d bytes", len(data))
	}
	cleanState, _, err := replayJournal(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("full journal does not replay: %v", err)
	}
	prevJobs := -1
	boundaries := 0
	for k := 0; k <= len(data); k++ {
		st, off, err := replayJournal(bytes.NewReader(data[:k]))
		if err == nil {
			boundaries++
			if off != int64(k) {
				t.Fatalf("offset %d: clean replay but salvage offset %d", k, off)
			}
		} else if !errors.Is(err, ErrTruncated) {
			t.Fatalf("offset %d: error %v, want ErrTruncated", k, err)
		} else if st != nil && off > int64(k) {
			t.Fatalf("offset %d: salvage offset %d beyond the data", k, off)
		}
		jobs := 0
		if st != nil {
			jobs = len(st.jobs)
		}
		if jobs < prevJobs && err == nil {
			t.Fatalf("offset %d: clean replay recovered fewer jobs (%d) than a shorter prefix (%d)", k, jobs, prevJobs)
		}
		if jobs > prevJobs {
			prevJobs = jobs
		}
	}
	if prevJobs != len(cleanState.jobs) {
		t.Fatalf("longest prefix recovered %d jobs, full journal has %d", prevJobs, len(cleanState.jobs))
	}
	// Sanity: record boundaries exist (header + every record end).
	if boundaries < 5 {
		t.Fatalf("only %d clean truncation points; framing suspect", boundaries)
	}
}

// TestOpenRecoversTruncatedJournal: the Queue-level path — a torn tail
// is reported in Recovery.Damage, the intact prefix loads, and the
// compaction immediately rewrites a clean journal.
func TestOpenRecoversTruncatedJournal(t *testing.T) {
	data := buildJournal(t)
	for _, cut := range []int{1, 7, len(data) / 3, len(data) - 3, len(data) - 1} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, JournalName), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		q, rec, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: Open refused a torn journal: %v", cut, err)
		}
		if rec.Damage == nil {
			t.Fatalf("cut %d: damage not reported", cut)
		}
		if !errors.Is(rec.Damage, ErrTruncated) {
			t.Fatalf("cut %d: damage %v, want ErrTruncated", cut, rec.Damage)
		}
		// The rewritten journal must be clean: reopen sees no damage and
		// the same jobs.
		jobs := len(q.List())
		q.Close()
		q2, rec2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if rec2.Damage != nil {
			t.Fatalf("cut %d: compacted journal still damaged: %v", cut, rec2.Damage)
		}
		if len(q2.List()) != jobs {
			t.Fatalf("cut %d: reopen lost jobs: %d vs %d", cut, len(q2.List()), jobs)
		}
		q2.Close()
	}
}

// TestReplayRejectsBitRot: a flipped payload byte in a complete record
// is a checksum mismatch — ErrCorrupt, not a tear — and the prefix
// before it still loads.
func TestReplayRejectsBitRot(t *testing.T) {
	data := buildJournal(t)
	// Find the second record's payload and flip a byte in it: the first
	// record must survive, the rest is refused.
	off := len(journalMagic)
	l0 := binary.LittleEndian.Uint32(data[off:])
	second := off + 8 + int(l0)
	corrupt := append([]byte(nil), data...)
	corrupt[second+8] ^= 0x40
	st, salvage, err := replayJournal(bytes.NewReader(corrupt))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if salvage != int64(second) {
		t.Errorf("salvage offset %d, want %d", salvage, second)
	}
	if len(st.jobs) != 1 {
		t.Errorf("salvaged %d jobs, want 1", len(st.jobs))
	}
}

func TestReplayRejectsWrongMagic(t *testing.T) {
	_, _, err := replayJournal(bytes.NewReader([]byte("ZBPT\x01whatever")))
	if err == nil || errors.Is(err, ErrTruncated) {
		t.Fatalf("wrong magic: %v, want a hard non-truncation error", err)
	}
}

// TestReplayBoundsRecordLength: a length field claiming more than
// maxRecordBytes is corruption, refused without allocating it.
func TestReplayBoundsRecordLength(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(journalMagic)
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], maxRecordBytes+1)
	buf.Write(hdr[:])
	buf.Write(bytes.Repeat([]byte{0}, 64))
	_, _, err := replayJournal(bytes.NewReader(buf.Bytes()))
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("oversized record: %v, want ErrCorrupt", err)
	}
}

// TestJournalGrowthIsAppendOnly: every mutating call appends; no call
// rewrites earlier bytes. Detected by prefix comparison across a
// sequence of operations.
func TestJournalGrowthIsAppendOnly(t *testing.T) {
	dir := t.TempDir()
	q, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	path := filepath.Join(dir, JournalName)
	read := func() []byte {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	prev := read()
	step := func(what string, f func() error) {
		t.Helper()
		if err := f(); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		cur := read()
		if len(cur) <= len(prev) || !bytes.Equal(cur[:len(prev)], prev) {
			t.Fatalf("%s: journal not append-only (%d -> %d bytes)", what, len(prev), len(cur))
		}
		prev = cur
	}
	var id string
	step("enqueue", func() error {
		j, err := q.Enqueue("t", json.RawMessage(fmt.Sprintf(`{"k":%d}`, 1)))
		id = j.ID
		return err
	})
	step("start", func() error { _, err := q.Next(context.Background()); return err })
	step("checkpoint", func() error { return q.MarkCheckpoint(id, 10) })
	step("done", func() error { return q.Done(id, json.RawMessage(`{}`)) })
}

// TestReplayJournalWithoutCounters: a journal written before jobs
// carried Retries and Released still replays; its snapshots load with
// those counters at zero and later records bump them.
func TestReplayJournalWithoutCounters(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString(journalMagic)
	for _, payload := range []string{
		`{"op":"job","job":{"id":"j-000001","tenant":"a","seq":1,"state":"dead","attempt":3,"error":"x"}}`,
		`{"op":"job","job":{"id":"j-000002","tenant":"a","seq":2,"state":"pending","attempt":1,"recovered":1}}`,
		`{"op":"start","id":"j-000002","attempt":2}`,
		`{"op":"fail","id":"j-000002","attempt":2,"error":"y"}`,
		`{"op":"start","id":"j-000002","attempt":3}`,
		`{"op":"release","id":"j-000002"}`,
	} {
		var hdr [frameSize]byte
		binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE([]byte(payload)))
		buf.Write(hdr[:])
		buf.WriteString(payload)
	}
	st, _, err := replayJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if j := st.jobs["j-000001"]; j.Retries != 0 || j.Released != 0 || j.State != StateDead {
		t.Fatalf("old dead snapshot replayed as %+v", j)
	}
	if j := st.jobs["j-000002"]; j.Retries != 1 || j.Released != 1 || j.Recovered != 1 || j.Attempt != 3 {
		t.Fatalf("old pending snapshot plus records replayed as %+v", j)
	}
}
