package jobq

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// fakeClock is an injectable wall clock.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func newFakeClock() *fakeClock {
	return &fakeClock{t: time.Date(2026, 8, 8, 0, 0, 0, 0, time.UTC)}
}

func openTestQueue(t *testing.T, dir string, opts Options) *Queue {
	t.Helper()
	q, _, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { q.Close() })
	return q
}

func TestEnqueueNextDoneLifecycle(t *testing.T) {
	q := openTestQueue(t, t.TempDir(), Options{})
	j, err := q.Enqueue("acme", json.RawMessage(`{"trace":"x"}`))
	if err != nil {
		t.Fatal(err)
	}
	if j.ID == "" || j.State != StatePending || j.Seq != 1 {
		t.Fatalf("enqueued job %+v", j)
	}

	got, err := q.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != j.ID || got.State != StateRunning || got.Attempt != 1 {
		t.Fatalf("Next returned %+v", got)
	}
	if err := q.Done(j.ID, json.RawMessage(`{"cpi":1}`)); err != nil {
		t.Fatal(err)
	}
	final, ok := q.Get(j.ID)
	if !ok || final.State != StateDone || string(final.Result) != `{"cpi":1}` {
		t.Fatalf("final job %+v", final)
	}
	d := q.Depth()
	if d.Done != 1 || d.Pending != 0 || d.Running != 0 {
		t.Fatalf("depth %+v", d)
	}
}

func TestEnqueueBoundedDepth(t *testing.T) {
	q := openTestQueue(t, t.TempDir(), Options{MaxDepth: 2})
	for i := 0; i < 2; i++ {
		if _, err := q.Enqueue("t", nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := q.Enqueue("t", nil); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("third enqueue: %v, want ErrQueueFull", err)
	}
	// Draining one admits one more: the bound covers the pending
	// backlog, not running or finished work.
	j, err := q.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := q.Enqueue("t", nil); err != nil {
		t.Fatalf("enqueue after drain: %v", err)
	}
	if err := q.Done(j.ID, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFailRetriesWithBackoffThenDeadLetters(t *testing.T) {
	clock := newFakeClock()
	q := openTestQueue(t, t.TempDir(), Options{
		MaxAttempts: 2,
		Retry:       Backoff{Base: time.Second, Cap: 10 * time.Second, Factor: 2},
		Now:         clock.now,
	})
	j, err := q.Enqueue("t", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Attempt 1 fails: job returns to pending with a backoff.
	if _, err := q.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	dead, delay, err := q.Fail(j.ID, "transient")
	if err != nil || dead {
		t.Fatalf("first Fail: dead=%v err=%v", dead, err)
	}
	if delay < 500*time.Millisecond || delay > time.Second {
		t.Fatalf("first retry delay %v outside [base/2, base)", delay)
	}
	// Deterministic jitter: the same (id, attempt) always maps to the
	// same delay.
	if d2 := q.opts.Retry.Delay(j.ID, 1); d2 != delay {
		t.Fatalf("jitter not deterministic: %v vs %v", delay, d2)
	}

	// Not eligible until the backoff expires.
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	if _, err := q.Next(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Next before backoff expiry: %v", err)
	}
	cancel()

	clock.advance(2 * time.Second)
	got, err := q.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got.ID != j.ID || got.Attempt != 2 {
		t.Fatalf("retry pick %+v", got)
	}

	// Attempt 2 fails: MaxAttempts reached, dead-letter.
	dead, _, err = q.Fail(j.ID, "still broken")
	if err != nil || !dead {
		t.Fatalf("second Fail: dead=%v err=%v", dead, err)
	}
	final, _ := q.Get(j.ID)
	if final.State != StateDead || final.Error != "still broken" {
		t.Fatalf("dead job %+v", final)
	}
	// A poisoned job must not wedge the queue: new work still flows.
	if _, err := q.Enqueue("t", nil); err != nil {
		t.Fatal(err)
	}
	if next, err := q.Next(context.Background()); err != nil || next.ID == j.ID {
		t.Fatalf("queue wedged after dead-letter: %+v err=%v", next, err)
	}
}

// TestReleaseReturnsJobWithoutAttemptPenalty: released attempts do not
// count toward MaxAttempts, so two graceful drains followed by one real
// failure leave the job retrying, not dead-lettered.
func TestReleaseReturnsJobWithoutAttemptPenalty(t *testing.T) {
	q := openTestQueue(t, t.TempDir(), Options{MaxAttempts: 3})
	j, _ := q.Enqueue("t", nil)
	for i := 0; i < 2; i++ {
		if _, err := q.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := q.Release(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	got, err := q.Next(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Release does not burn an attempt, but every restart is journaled.
	if got.Attempt != 3 || got.Released != 2 {
		t.Fatalf("after two releases: attempt=%d released=%d, want 3 and 2", got.Attempt, got.Released)
	}
	dead, _, err := q.Fail(j.ID, "x")
	if err != nil {
		t.Fatal(err)
	}
	if dead {
		t.Fatal("dead after a single real failure despite MaxAttempts=3")
	}
}

// TestTenantCountsMatchTally drives a scripted lifecycle across two
// tenants and holds TenantCounts (and Depth) to a tally the script keeps
// itself, after every step, across a clean Close/Open, which must change
// nothing, and across an unclean crash, which may only requeue the
// running job and bump its Recovered.
func TestTenantCountsMatchTally(t *testing.T) {
	dir := t.TempDir()
	clock := newFakeClock()
	opts := Options{MaxAttempts: 2, Retry: Backoff{Base: time.Second, Cap: time.Second, Factor: 2}, Now: clock.now}
	q, _, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]Counts{}
	tenantOf := map[string]string{}
	bump := func(id string, f func(c *Counts)) {
		c := want[tenantOf[id]]
		f(&c)
		want[tenantOf[id]] = c
	}
	check := func(step string) {
		t.Helper()
		got := q.TenantCounts(func(tenant string) string { return tenant })
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: TenantCounts\n got %+v\nwant %+v", step, got, want)
		}
		var sum Depth
		for _, c := range want {
			sum.Pending += c.Pending
			sum.Running += c.Running
			sum.Done += c.Done
			sum.Dead += c.Dead
		}
		if d := q.Depth(); d != sum {
			t.Fatalf("%s: Depth %+v, want %+v", step, d, sum)
		}
	}
	enqueue := func(tenant string) string {
		t.Helper()
		j, err := q.Enqueue(tenant, nil)
		if err != nil {
			t.Fatal(err)
		}
		tenantOf[j.ID] = tenant
		bump(j.ID, func(c *Counts) { c.Admitted++; c.Pending++ })
		check("enqueue " + j.ID)
		return j.ID
	}
	start := func(id string) {
		t.Helper()
		j, err := q.Next(context.Background())
		if err != nil || j.ID != id {
			t.Fatalf("Next = %s, %v; want %s", j.ID, err, id)
		}
		bump(id, func(c *Counts) { c.Pending--; c.Running++ })
		check("start " + id)
	}
	fail := func(id string, wantDead bool) {
		t.Helper()
		dead, _, err := q.Fail(id, "boom")
		if err != nil || dead != wantDead {
			t.Fatalf("Fail(%s) dead=%v err=%v, want dead=%v", id, dead, err, wantDead)
		}
		if dead {
			bump(id, func(c *Counts) { c.Running--; c.Dead++ })
		} else {
			bump(id, func(c *Counts) { c.Running--; c.Pending++; c.Retried++ })
		}
		check("fail " + id)
		clock.advance(2 * time.Second) // past the retry backoff
	}

	a1, a2, g1 := enqueue("acme"), enqueue("acme"), enqueue("globex")
	start(a1)
	if err := q.Done(a1, json.RawMessage(`{}`)); err != nil {
		t.Fatal(err)
	}
	bump(a1, func(c *Counts) { c.Running--; c.Done++ })
	check("done " + a1)
	start(a2)
	fail(a2, false)
	start(a2)
	if err := q.Release(a2); err != nil {
		t.Fatal(err)
	}
	bump(a2, func(c *Counts) { c.Running--; c.Pending++; c.Released++ })
	check("release " + a2)
	start(a2)
	fail(a2, true) // attempt 3, one released: the second real failure
	start(g1)
	fail(g1, false)

	if err := q.Close(); err != nil {
		t.Fatal(err)
	}
	if q, _, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	check("clean reopen")

	start(g1)
	// Crash: abandon q without Close, like kill -9.
	if q, _, err = Open(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	bump(g1, func(c *Counts) { c.Running--; c.Pending++; c.Recovered++ })
	check("crash reopen")
}

// TestRestartPersistsEverything: a clean close and reopen reconstructs
// jobs in every state, and an acknowledged enqueue is never lost.
func TestRestartPersistsEverything(t *testing.T) {
	dir := t.TempDir()
	q, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	done, _ := q.Enqueue("a", json.RawMessage(`{"n":1}`))
	pend, _ := q.Enqueue("b", json.RawMessage(`{"n":2}`))
	if _, err := q.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.Done(done.ID, json.RawMessage(`{"ok":true}`)); err != nil {
		t.Fatal(err)
	}
	if err := q.Close(); err != nil {
		t.Fatal(err)
	}

	q2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if rec.Damage != nil || rec.Replayed != 2 || len(rec.Requeued) != 0 {
		t.Fatalf("recovery %+v (damage %v)", rec, rec.Damage)
	}
	gotDone, _ := q2.Get(done.ID)
	if gotDone.State != StateDone || string(gotDone.Result) != `{"ok":true}` {
		t.Fatalf("done job lost: %+v", gotDone)
	}
	gotPend, _ := q2.Get(pend.ID)
	if gotPend.State != StatePending || string(gotPend.Payload) != `{"n":2}` {
		t.Fatalf("pending job lost: %+v", gotPend)
	}
	// Sequence numbering continues where it left off.
	j3, _ := q2.Enqueue("c", nil)
	if j3.Seq != 3 {
		t.Fatalf("seq after restart = %d, want 3", j3.Seq)
	}
}

// TestCrashRecoveryRequeuesRunning: a queue abandoned without Close —
// the kill -9 image, since every append is fsynced — reopens with the
// running job back in pending, its checkpoint marker intact.
func TestCrashRecoveryRequeuesRunning(t *testing.T) {
	dir := t.TempDir()
	q, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := q.Enqueue("a", json.RawMessage(`{"spec":1}`))
	if _, err := q.Next(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := q.MarkCheckpoint(j.ID, 40_000); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no Release. The OS file handle leaks until test
	// exit, exactly like the process dying.

	q2, rec, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer q2.Close()
	if len(rec.Requeued) != 1 || rec.Requeued[0] != j.ID {
		t.Fatalf("requeued %v, want [%s]", rec.Requeued, j.ID)
	}
	got, _ := q2.Get(j.ID)
	if got.State != StatePending || got.CheckpointAt != 40_000 || got.Recovered != 1 {
		t.Fatalf("recovered job %+v", got)
	}
	// The recovered job is dispatchable immediately.
	next, err := q2.Next(context.Background())
	if err != nil || next.ID != j.ID {
		t.Fatalf("post-recovery Next: %+v err=%v", next, err)
	}
}

// TestCompactionBoundsJournal: restarting over and over must not grow
// the journal — compaction rewrites live state only.
func TestCompactionBoundsJournal(t *testing.T) {
	dir := t.TempDir()
	q, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	j, _ := q.Enqueue("a", json.RawMessage(`{"spec":1}`))
	for i := 0; i < 20; i++ { // churn: starts and releases
		if _, err := q.Next(context.Background()); err != nil {
			t.Fatal(err)
		}
		if err := q.Release(j.ID); err != nil {
			t.Fatal(err)
		}
	}
	q.Close()
	churned, err := os.Stat(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}

	q2, _, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	q2.Close()
	compacted, err := os.Stat(filepath.Join(dir, JournalName))
	if err != nil {
		t.Fatal(err)
	}
	if compacted.Size() >= churned.Size() {
		t.Errorf("compaction did not shrink the journal: %d -> %d bytes", churned.Size(), compacted.Size())
	}
}

func TestNextBlocksUntilEnqueue(t *testing.T) {
	q := openTestQueue(t, t.TempDir(), Options{})
	got := make(chan Job, 1)
	go func() {
		j, err := q.Next(context.Background())
		if err == nil {
			got <- j
		}
	}()
	time.Sleep(20 * time.Millisecond)
	j, err := q.Enqueue("t", nil)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case picked := <-got:
		if picked.ID != j.ID {
			t.Fatalf("picked %s, want %s", picked.ID, j.ID)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Next did not wake on enqueue")
	}
}

func TestTokenBucketAdmission(t *testing.T) {
	clock := newFakeClock()
	l := NewTenantLimiter(1, 2, clock.now) // 1/sec, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := l.Allow("a"); !ok {
			t.Fatalf("burst take %d refused", i)
		}
	}
	ok, retry := l.Allow("a")
	if ok {
		t.Fatal("third immediate take admitted")
	}
	if retry <= 0 || retry > time.Second {
		t.Fatalf("retryAfter %v", retry)
	}
	// Tenants are independent.
	if ok, _ := l.Allow("b"); !ok {
		t.Fatal("tenant b starved by tenant a")
	}
	// Refill restores admission.
	clock.advance(1100 * time.Millisecond)
	if ok, _ := l.Allow("a"); !ok {
		t.Fatal("take after refill refused")
	}
}

func TestBackoffCapAndGrowth(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Cap: 1 * time.Second, Factor: 2}
	prevMax := time.Duration(0)
	for attempt := 1; attempt <= 8; attempt++ {
		d := b.Delay("job-x", attempt)
		raw := float64(b.Base) * float64(int(1)<<(attempt-1))
		if raw > float64(b.Cap) {
			raw = float64(b.Cap)
		}
		if d < time.Duration(raw/2) || d > time.Duration(raw) {
			t.Errorf("attempt %d: delay %v outside [%v/2, %v]", attempt, d, time.Duration(raw), time.Duration(raw))
		}
		if d > time.Second {
			t.Errorf("attempt %d: delay %v exceeds cap", attempt, d)
		}
		if d > prevMax {
			prevMax = d
		}
	}
	if prevMax < 500*time.Millisecond {
		t.Errorf("delays never approached the cap: max %v", prevMax)
	}
}
