package jobq

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// State is a job's lifecycle position.
type State uint8

// Job states. Pending jobs wait (possibly under a retry backoff),
// running jobs occupy a worker, done and dead jobs are terminal.
const (
	StatePending State = iota
	StateRunning
	StateDone
	StateDead
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePending:
		return "pending"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("State(%d)", uint8(s))
	}
}

// MarshalJSON renders the state as its name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON accepts a state name.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for _, c := range []State{StatePending, StateRunning, StateDone, StateDead} {
		if c.String() == name {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("jobq: unknown state %q", name)
}

// Job is one unit of service work. The queue is payload-agnostic: the
// service layer stores a serialized sim spec in Payload and the final
// engine result in Result. All fields are data (journal snapshots
// marshal the whole struct); NotBefore is scheduling state that resets
// at restart — a recovered job is immediately eligible.
type Job struct {
	ID      string          `json:"id"`
	Tenant  string          `json:"tenant"`
	Payload json.RawMessage `json:"payload,omitempty"`
	Seq     int64           `json:"seq"`

	State   State  `json:"state"`
	Attempt int    `json:"attempt"`         // execution attempts started
	Error   string `json:"error,omitempty"` // last failure, "" when none

	// CheckpointAt is the instruction count of the job's last durable
	// ZBPC checkpoint (0 when none); the checkpoint file itself lives at
	// Queue.CheckpointPath(ID).
	CheckpointAt int64 `json:"checkpointAt,omitempty"`

	// ResumedFrom is the checkpoint instruction count the current (or
	// last) attempt resumed from, 0 for a from-scratch run. Set by the
	// service; journaled via snapshots so post-crash status is honest.
	ResumedFrom int64 `json:"resumedFrom,omitempty"`

	// Recovered counts crash recoveries that re-queued this job, Retries
	// failed attempts sent back to pending, Released graceful drains.
	Recovered int `json:"recovered,omitempty"`
	Retries   int `json:"retries,omitempty"`
	Released  int `json:"released,omitempty"`

	Result json.RawMessage `json:"result,omitempty"`

	// NotBefore is the earliest eligible dispatch time (unix nanos, 0 =
	// immediately) — in-memory retry backoff state, reset by restart.
	NotBefore int64 `json:"-"`
}

// ErrQueueFull is returned by Enqueue when the pending backlog is at
// MaxDepth. The admission layer translates it into 429 + Retry-After:
// shedding new work keeps accepted work flowing.
var ErrQueueFull = errors.New("jobq: queue full")

// ErrUnknownJob reports an operation on a job ID the queue never saw.
var ErrUnknownJob = errors.New("jobq: unknown job")

// Options tunes a Queue. Zero values select the documented defaults.
type Options struct {
	// MaxDepth bounds the pending backlog (not running or terminal
	// jobs). <= 0 selects 64.
	MaxDepth int

	// MaxAttempts dead-letters a job after this many attempts that did
	// not end in a Release. <= 0 selects 3.
	MaxAttempts int

	// Retry shapes the backoff between attempts; zero fields take the
	// DefaultBackoff values.
	Retry Backoff

	// Now supplies the wall clock (tests inject a fake one). Nil means
	// time.Now.
	Now func() time.Time
}

func (o Options) withDefaults() Options {
	if o.MaxDepth <= 0 {
		o.MaxDepth = 64
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 3
	}
	o.Retry = o.Retry.withDefaults()
	if o.Now == nil {
		o.Now = time.Now
	}
	return o
}

// Recovery reports what Open found in an existing journal.
type Recovery struct {
	// Replayed is the number of jobs reconstructed from the journal.
	Replayed int

	// Requeued lists jobs that were running at the crash and went back
	// to pending (resuming from their checkpoint if one reached disk).
	Requeued []string

	// Damage is nil for a clean journal; otherwise the typed replay
	// error (ErrTruncated / ErrCorrupt, with the byte offset where the
	// intact prefix ends). The prefix is recovered either way.
	Damage error
}

// Queue is a persistent job queue. All methods are safe for concurrent
// use; every state transition is journaled and fsynced before the
// mutating call returns.
type Queue struct {
	dir  string
	opts Options

	mu sync.Mutex
	// st is the replayed in-memory image of the journal.
	//
	//zbp:guardedby mu
	st *state
	// f is the append-only journal handle.
	//
	//zbp:guardedby mu
	f *os.File
	// closed fails mutating operations after Close.
	//
	//zbp:guardedby mu
	closed bool

	// notify wakes blocked Next callers after any transition that could
	// make a job eligible.
	notify chan struct{}
}

// JournalName is the queue's write-ahead journal file within its
// directory.
const JournalName = "queue.wal"

// Open loads (or creates) the queue persisted in dir. An existing
// journal is replayed — tolerating a torn tail per Recovery.Damage —
// compacted, and reopened for appends. Jobs found running are requeued
// as pending: whoever was executing them is gone.
func Open(dir string, opts Options) (*Queue, Recovery, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, Recovery{}, fmt.Errorf("jobq: creating queue directory: %w", err)
	}
	path := filepath.Join(dir, JournalName)

	var rec Recovery
	st := newState()
	if f, err := os.Open(path); err == nil {
		replayed, _, rerr := replayJournal(bufferedReader(f))
		f.Close()
		if rerr != nil && !errors.Is(rerr, ErrTruncated) && !errors.Is(rerr, ErrCorrupt) {
			return nil, Recovery{}, rerr // wrong file, not damage
		}
		st = replayed
		rec.Damage = rerr
		rec.Replayed = len(st.jobs)
		for _, id := range st.order {
			if j := st.jobs[id]; j.State == StateRunning {
				j.State = StatePending
				j.Recovered++
				rec.Requeued = append(rec.Requeued, id)
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, Recovery{}, fmt.Errorf("jobq: opening journal: %w", err)
	}

	// Compact: the replayed image becomes the new journal, atomically.
	if err := writeCompacted(path, st); err != nil {
		return nil, Recovery{}, err
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return nil, Recovery{}, fmt.Errorf("jobq: reopening journal for append: %w", err)
	}
	return &Queue{
		dir:    dir,
		opts:   opts,
		st:     st,
		f:      f,
		notify: make(chan struct{}, 1),
	}, rec, nil
}

// Close releases the journal handle. In-memory state stays readable;
// mutating operations fail afterwards.
func (q *Queue) Close() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return nil
	}
	q.closed = true
	//zbp:locked closing the handle after closed=true must be atomic with the flag, or a racing append writes to a closed file
	return q.f.Close()
}

// Dir returns the queue's directory.
func (q *Queue) Dir() string { return q.dir }

// CheckpointPath is where the job's ZBPC checkpoint file lives.
func (q *Queue) CheckpointPath(id string) string {
	return filepath.Join(q.dir, id+".ckpt")
}

// append journals one record and fsyncs. The append-then-fsync pair
// runs inside the caller's critical section by design: releasing the
// lock between the write and the Sync would let a concurrent append
// interleave frames, and acknowledging before the Sync would break the
// crash-durability contract.
//
//zbp:caller-holds mu
//zbp:locked append-then-fsync inside the lock is the journal's durability contract
//zbp:durable
func (q *Queue) append(rec *record) error {
	if q.closed {
		return errors.New("jobq: queue closed")
	}
	if err := appendRecord(q.f, rec); err != nil {
		return err
	}
	if err := q.f.Sync(); err != nil {
		return fmt.Errorf("jobq: syncing journal: %w", err)
	}
	return nil
}

func (q *Queue) wake() {
	select {
	case q.notify <- struct{}{}:
	default:
	}
}

// Enqueue admits a new job, journaled and fsynced before returning: an
// acknowledged job survives kill -9. Returns ErrQueueFull when the
// pending backlog is at MaxDepth.
//
//zbp:durable
func (q *Queue) Enqueue(tenant string, payload json.RawMessage) (Job, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if n := q.st.total().Pending; n >= q.opts.MaxDepth {
		return Job{}, fmt.Errorf("%w: %d pending (max %d)", ErrQueueFull, n, q.opts.MaxDepth)
	}
	seq := q.st.nextSeq
	id := fmt.Sprintf("j-%06d", seq)
	rec := &record{Op: opEnqueue, ID: id, Tenant: tenant, Payload: payload, Seq: seq}
	if err := q.append(rec); err != nil {
		return Job{}, err
	}
	if err := q.st.apply(rec); err != nil {
		return Job{}, err
	}
	q.wake()
	return *q.st.jobs[id], nil
}

// Next blocks until a pending job is eligible (lowest Seq first,
// respecting retry backoff times), marks it running, journals the start,
// and returns a copy. It returns ctx.Err() once ctx is done.
func (q *Queue) Next(ctx context.Context) (Job, error) {
	for {
		j, wait, claimed, err := q.tryNext()
		if err != nil {
			return Job{}, err
		}
		if claimed {
			return j, nil
		}

		timer := time.NewTimer(wait)
		select {
		case <-ctx.Done():
			timer.Stop()
			return Job{}, ctx.Err()
		case <-q.notify:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// tryNext claims the eligible pending job with the lowest Seq under a
// single lock hold, journaling the start record. claimed is false when
// nothing is eligible; wait then says how long until the earliest
// backoff expires.
//
//zbp:durable
func (q *Queue) tryNext() (Job, time.Duration, bool, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, wait := q.pickLocked()
	if j == nil {
		return Job{}, wait, false, nil
	}
	rec := &record{Op: opStart, ID: j.ID, Attempt: j.Attempt + 1}
	if err := q.append(rec); err != nil {
		return Job{}, 0, false, err
	}
	if err := q.st.apply(rec); err != nil {
		return Job{}, 0, false, err
	}
	return *j, 0, true, nil
}

// pickLocked returns the eligible pending job with the lowest Seq, or
// (nil, wait) where wait is how long until the earliest backoff expires
// (a long poll when nothing is pending at all).
//
//zbp:caller-holds mu
func (q *Queue) pickLocked() (*Job, time.Duration) {
	now := q.opts.Now().UnixNano()
	var best *Job
	earliest := int64(0)
	for _, id := range q.st.order {
		j := q.st.jobs[id]
		if j.State != StatePending {
			continue
		}
		if j.NotBefore > now {
			if earliest == 0 || j.NotBefore < earliest {
				earliest = j.NotBefore
			}
			continue
		}
		if best == nil || j.Seq < best.Seq {
			best = j
		}
	}
	if best != nil {
		return best, 0
	}
	if earliest > 0 {
		return nil, time.Duration(earliest-now) + time.Millisecond
	}
	return nil, time.Second
}

// MarkCheckpoint journals that a durable checkpoint for the job reached
// instructions. Call after engine.WriteCheckpointFile succeeds — the
// journal must never point at a checkpoint that is not on disk.
//
//zbp:durable
func (q *Queue) MarkCheckpoint(id string, instructions int64) error {
	return q.transition(&record{Op: opCheckpoint, ID: id, Instructions: instructions})
}

// MarkResumedFrom records which checkpoint the current attempt resumed
// from (status honesty; snapshot-persisted at the next compaction).
func (q *Queue) MarkResumedFrom(id string, instructions int64) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.st.jobs[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	j.ResumedFrom = instructions
	return nil
}

// Done completes a job with its serialized result and removes the
// job's checkpoint file (no longer needed).
//
//zbp:durable
func (q *Queue) Done(id string, result json.RawMessage) error {
	if err := q.transition(&record{Op: opDone, ID: id, Result: result}); err != nil {
		return err
	}
	os.Remove(q.CheckpointPath(id))
	return nil
}

// Fail records a failed attempt. The job dead-letters once its attempts,
// less those a Release ended, reach MaxAttempts; otherwise it returns to
// pending with a capped exponential backoff (deterministic jitter keyed
// by job ID and attempt). Returns whether the job is now dead and, if
// not, the retry delay applied.
//
//zbp:durable
func (q *Queue) Fail(id string, cause string) (dead bool, delay time.Duration, err error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.st.jobs[id]
	if !ok {
		return false, 0, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.Attempt-j.Released >= q.opts.MaxAttempts {
		rec := &record{Op: opDead, ID: id, Error: cause}
		if err := q.append(rec); err != nil {
			return false, 0, err
		}
		if err := q.st.apply(rec); err != nil {
			return false, 0, err
		}
		//zbp:locked removing a stale checkpoint is a local unlink, ordered after the dead-letter record on purpose
		os.Remove(q.CheckpointPath(id))
		return true, 0, nil
	}
	// The backoff is pure arithmetic over (id, attempt); computing it
	// before the journal append keeps the post-Sync tail free of writes.
	//zbp:locked the jitter hash writes to an in-memory fnv state, never to I/O
	delay = q.opts.Retry.Delay(id, j.Attempt)
	rec := &record{Op: opFail, ID: id, Attempt: j.Attempt, Error: cause}
	if err := q.append(rec); err != nil {
		return false, 0, err
	}
	if err := q.st.apply(rec); err != nil {
		return false, 0, err
	}
	j.NotBefore = q.opts.Now().Add(delay).UnixNano()
	q.wake() // re-arm Next's backoff timer
	return false, delay, nil
}

// Release returns a running job to pending without burning an attempt
// (Fail discounts released attempts) — the graceful-shutdown path: the
// job did not fail, its worker is going away. Any checkpoint taken
// during the drain stays, so the next run resumes.
//
//zbp:durable
func (q *Queue) Release(id string) error {
	if err := q.transition(&record{Op: opRelease, ID: id}); err != nil {
		return err
	}
	q.mu.Lock()
	q.wake()
	q.mu.Unlock()
	return nil
}

// transition journals and applies a single-job record.
//
//zbp:durable
func (q *Queue) transition(rec *record) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if _, ok := q.st.jobs[rec.ID]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownJob, rec.ID)
	}
	if err := q.append(rec); err != nil {
		return err
	}
	return q.st.apply(rec)
}

// Get returns a copy of the job.
func (q *Queue) Get(id string) (Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	j, ok := q.st.jobs[id]
	if !ok {
		return Job{}, false
	}
	return *j, true
}

// List returns copies of every job, ordered by Seq.
func (q *Queue) List() []Job {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]Job, 0, len(q.st.order))
	for _, id := range q.st.order {
		out = append(out, *q.st.jobs[id])
	}
	sort.Slice(out, func(i, k int) bool { return out[i].Seq < out[k].Seq })
	return out
}

// Depth reports the queue's occupancy by state.
type Depth struct {
	Pending int `json:"pending"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Dead    int `json:"dead"`
}

// Depth counts jobs by state.
func (q *Queue) Depth() Depth {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.st.total().Depth
}

// Counts tallies a set of jobs: occupancy by state plus the per-job
// lifecycle counters summed. Jobs are never deleted and those counters
// only grow, so every field outside Pending and Running is monotone.
type Counts struct {
	Depth
	Admitted, Retried, Released, Recovered int
}

// with returns c with job j folded in.
func (c Counts) with(j *Job) Counts {
	c.Admitted++
	switch j.State {
	case StatePending:
		c.Pending++
	case StateRunning:
		c.Running++
	case StateDone:
		c.Done++
	case StateDead:
		c.Dead++
	}
	c.Retried += j.Retries
	c.Released += j.Released
	c.Recovered += j.Recovered
	return c
}

// TenantCounts tallies jobs by key(tenant), under one lock hold: the
// map is a single consistent cut of the journal state.
func (q *Queue) TenantCounts(key func(tenant string) string) map[string]Counts {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]Counts)
	for _, j := range q.st.jobs {
		out[key(j.Tenant)] = out[key(j.Tenant)].with(j)
	}
	return out
}

// MaxDepth returns the configured pending-backlog bound.
func (q *Queue) MaxDepth() int { return q.opts.MaxDepth }

// MaxAttempts returns the configured dead-letter threshold.
func (q *Queue) MaxAttempts() int { return q.opts.MaxAttempts }
