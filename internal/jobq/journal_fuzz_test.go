package jobq

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// FuzzJournalReplay feeds arbitrary bytes to the journal replayer. The
// contract under fuzzing: never panic, never loop, and classify every
// input as clean, truncated (ErrTruncated), corrupt (ErrCorrupt), or
// not-a-journal — with the salvage offset inside the input. Wired into
// the CI fuzz smoke job next to the trace-reader fuzzers.
func FuzzJournalReplay(f *testing.F) {
	// Seed with a real journal, its truncations, and a corruption.
	dir := f.TempDir()
	q, _, err := Open(dir, Options{})
	if err != nil {
		f.Fatal(err)
	}
	j, _ := q.Enqueue("fuzz", json.RawMessage(`{"trace":"tpf-airline","instructions":1000}`))
	if _, err := q.Next(context.Background()); err != nil {
		f.Fatal(err)
	}
	q.MarkCheckpoint(j.ID, 512)
	q.Done(j.ID, json.RawMessage(`{"cpi":1.0}`))
	// A second job retried once and released once, so the seed carries
	// the records that bump Retries and Released.
	k, _ := q.Enqueue("fuzz", json.RawMessage(`{"trace":"zos-trade6"}`))
	q.Next(context.Background())
	q.Fail(k.ID, "transient")
	q.Next(context.Background())
	q.Release(k.ID)
	q.Close()
	seed, err := os.ReadFile(filepath.Join(dir, JournalName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(seed[:len(seed)/2])
	f.Add(seed[:len(journalMagic)+3])
	flipped := append([]byte(nil), seed...)
	if len(flipped) > 20 {
		flipped[20] ^= 0x10
	}
	f.Add(flipped)
	f.Add([]byte(journalMagic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		st, off, err := replayJournal(bytes.NewReader(data))
		if off < 0 || off > int64(len(data)) {
			t.Fatalf("salvage offset %d outside [0, %d]", off, len(data))
		}
		if err == nil {
			if st == nil {
				t.Fatal("clean replay returned nil state")
			}
			// A clean replay must re-serialize and replay to the same
			// job set (round trip through compaction).
			tmp := filepath.Join(t.TempDir(), "compact.wal")
			if err := writeCompacted(tmp, st); err != nil {
				t.Fatalf("compacting clean state: %v", err)
			}
			f2, err := os.Open(tmp)
			if err != nil {
				t.Fatal(err)
			}
			defer f2.Close()
			st2, _, err := replayJournal(bufferedReader(f2))
			if err != nil {
				t.Fatalf("compacted journal does not replay: %v", err)
			}
			if len(st2.jobs) != len(st.jobs) {
				t.Fatalf("compaction changed job count: %d -> %d", len(st.jobs), len(st2.jobs))
			}
			// Snapshots persist every job's state and lifecycle counters.
			for id, j := range st.jobs {
				j2 := st2.jobs[id]
				if j2 == nil || j2.State != j.State || j2.Attempt != j.Attempt || j2.Tenant != j.Tenant ||
					j2.Retries != j.Retries || j2.Released != j.Released || j2.Recovered != j.Recovered {
					t.Fatalf("compaction changed job %q:\n%+v\n-> %+v", id, j, j2)
				}
			}
			return
		}
		if !errors.Is(err, ErrTruncated) && !errors.Is(err, ErrCorrupt) {
			// The only other refusal is a wrong/torn header, which must
			// mention the magic, or a real decode violation mapped to
			// ErrCorrupt above. Anything else is a classification gap.
			if len(data) >= len(journalMagic) && string(data[:len(journalMagic)]) == journalMagic {
				t.Fatalf("journal-magic input refused with untyped error: %v", err)
			}
		}
	})
}
