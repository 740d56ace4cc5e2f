package zsimd

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/jobq"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/sim"
)

// testSpec returns a spec body for one Table 4 profile at the given
// length.
func testSpec(instructions int) json.RawMessage {
	spec := sim.Spec{Trace: "tpf-airline", Instructions: instructions, Config: sim.ConfigBTB2}
	b, err := json.Marshal(spec)
	if err != nil {
		panic(err)
	}
	return b
}

// waitFor polls cond until it holds or the deadline lapses.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func newTestService(t testing.TB, cfg Config) *Service {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func shutdownNow(t testing.TB, s *Service) {
	t.Helper()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestJobRunsToCompletionMatchingSerialRun is the baseline correctness
// gate: a job executed through queue + worker + context-polling loop
// produces a Result byte-identical (in its persisted JSON form) to the
// plain serial spec run.
func TestJobRunsToCompletionMatchingSerialRun(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CheckpointInterval: -1})
	job, err := s.Queue().Enqueue("acme", testSpec(300_000))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	defer shutdownNow(t, s)

	waitFor(t, 30*time.Second, "job completion", func() bool {
		j, _ := s.Queue().Get(job.ID)
		return j.State == jobq.StateDone
	})
	got, _ := s.Queue().Get(job.ID)

	var spec sim.Spec
	if err := json.Unmarshal(testSpec(300_000), &spec); err != nil {
		t.Fatal(err)
	}
	want, err := spec.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got.Result), wantJSON) {
		t.Fatalf("service result diverges from serial run:\n got %s\nwant %s", got.Result, wantJSON)
	}
	if got.ResumedFrom != 0 {
		t.Fatalf("fresh job reports ResumedFrom=%d", got.ResumedFrom)
	}
	if v, err := s.m.counterValue("svc_jobs_done_total"); err != nil || v != 1 {
		t.Fatalf("svc_jobs_done_total = %d, %v; want 1", v, err)
	}
	if v, err := s.m.counterValue("svc_tenant_acme_done_total"); err != nil || v != 1 {
		t.Fatalf("svc_tenant_acme_done_total = %d, %v; want 1", v, err)
	}
}

// TestJobSpansNestEnginePhasesAndBatches: a traced job attempt runs
// through the engine's batched loop, so its unit span carries the
// engine's warmup and steady phase spans, and their batch spans account
// for every record of the trace.
func TestJobSpansNestEnginePhasesAndBatches(t *testing.T) {
	tr := span.NewTrace()
	s := newTestService(t, Config{Workers: 1, CheckpointInterval: -1, Spans: tr})
	job, err := s.Queue().Enqueue("acme", testSpec(300_000))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	waitFor(t, 30*time.Second, "job completion", func() bool {
		j, _ := s.Queue().Get(job.ID)
		return j.State == jobq.StateDone
	})
	shutdownNow(t, s) // workers adopt their recorders on exit

	var unit span.ID
	phases := map[span.ID]string{}
	var records int64
	for _, ev := range tr.Events() {
		switch ev.Kind {
		case span.KindUnit:
			unit = ev.ID
		case span.KindPhase:
			phases[ev.ID] = ev.Name
		}
	}
	var names []string
	for _, ev := range tr.Events() {
		switch {
		case ev.Kind == span.KindPhase && ev.Parent == unit:
			names = append(names, ev.Name)
		case ev.Kind == span.KindBatch && phases[ev.Parent] != "":
			records += ev.Arg1 + ev.Arg2
		}
	}
	if strings.Join(names, ",") != "warmup,steady" {
		t.Errorf("phase spans under the job's unit span = %v, want [warmup steady]", names)
	}
	if records != 300_000 {
		t.Errorf("batch spans account for %d records, want 300000", records)
	}
}

// TestShutdownDrainCheckpointsAndNextIncarnationResumes is the
// graceful-SIGTERM satellite: a drain deadline cancels an in-flight
// job, which checkpoints its exact stopping boundary and is released
// (no attempt burned); a fresh service on the same directory resumes it
// from that checkpoint, and the final result is bit-identical to a
// serial checkpoint+resume oracle at the same boundary.
func TestShutdownDrainCheckpointsAndNextIncarnationResumes(t *testing.T) {
	dir := t.TempDir()
	// A long job with a tight checkpoint interval: the first interval
	// checkpoint lands almost immediately, then the 1ms drain deadline
	// cancels mid-trace.
	cfg := Config{Dir: dir, Workers: 1, CheckpointInterval: 100_000, DrainTimeout: time.Millisecond}
	s := newTestService(t, cfg)
	job, err := s.Queue().Enqueue("acme", testSpec(2_000_000))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	waitFor(t, 30*time.Second, "first durable checkpoint", func() bool {
		j, _ := s.Queue().Get(job.ID)
		return j.State == jobq.StateRunning && j.CheckpointAt > 0
	})
	shutdownNow(t, s)

	released, _ := s.Queue().Get(job.ID)
	if released.State != jobq.StatePending {
		t.Fatalf("drained job state = %v, want pending (job done before drain? raise instructions)", released.State)
	}
	if released.CheckpointAt == 0 {
		t.Fatal("drained job has no checkpoint")
	}
	if released.Attempt != 1 {
		t.Fatalf("release burned an attempt: Attempt = %d, want 1", released.Attempt)
	}
	if v, err := s.m.counterValue("svc_jobs_released_total"); err != nil || v != 1 {
		t.Fatalf("svc_jobs_released_total = %d, %v; want 1", v, err)
	}

	// Second incarnation: resumes from the drain checkpoint.
	s2 := newTestService(t, cfg)
	ck, err := engine.ReadCheckpointFile(s2.Queue().CheckpointPath(job.ID))
	if err != nil {
		t.Fatalf("reading drain checkpoint: %v", err)
	}
	if ck.Instructions != released.CheckpointAt {
		t.Fatalf("checkpoint file at %d instructions, journal says %d", ck.Instructions, released.CheckpointAt)
	}
	s2.Start()
	waitFor(t, 60*time.Second, "resumed completion", func() bool {
		j, _ := s2.Queue().Get(job.ID)
		return j.State == jobq.StateDone
	})
	got, _ := s2.Queue().Get(job.ID)
	if got.ResumedFrom != ck.Instructions {
		t.Fatalf("ResumedFrom = %d, want %d", got.ResumedFrom, ck.Instructions)
	}
	shutdownNow(t, s2)
	// The release is journal state, so its count survives the restart.
	for name, want := range map[string]int64{"svc_resumes_total": 1, "svc_jobs_released_total": 1, "svc_jobs_done_total": 1} {
		if v, err := s2.m.counterValue(name); err != nil || v != want {
			t.Fatalf("second incarnation %s = %d, %v; want %d", name, v, err, want)
		}
	}

	// Oracle: same spec, same checkpoint, an uninterrupted resume on a
	// fresh engine — the recovered service result must match it
	// byte-for-byte in persisted form.
	var spec sim.Spec
	if err := json.Unmarshal(testSpec(2_000_000), &spec); err != nil {
		t.Fatal(err)
	}
	unit, err := spec.Unit()
	if err != nil {
		t.Fatal(err)
	}
	params := unit.Params
	params.CheckpointInterval = cfg.CheckpointInterval
	params.CheckpointSink = func(*engine.Checkpoint) {}
	oracle := engine.New(unit.Config, params)
	want, err := oracle.RunBatched(context.Background(), unit.NewSource(), unit.ConfigName, ck)
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bytes.TrimSpace(got.Result), wantJSON) {
		t.Fatalf("resumed result diverges from serial checkpoint+resume oracle:\n got %s\nwant %s", got.Result, wantJSON)
	}
}

// TestJobDeadlineDeadLetters: an attempt that overruns JobDeadline
// counts as a failure; after MaxAttempts the job dead-letters instead
// of looping forever. Each doomed attempt still checkpoints, so the
// retries ratchet forward rather than restarting.
func TestJobDeadlineDeadLetters(t *testing.T) {
	s := newTestService(t, Config{
		Workers:            1,
		MaxAttempts:        2,
		JobDeadline:        15 * time.Millisecond,
		CheckpointInterval: 10_000,
		Retry:              jobq.Backoff{Base: time.Millisecond, Cap: 2 * time.Millisecond, Factor: 2},
	})
	defer shutdownNow(t, s)
	// Far more instructions than 15ms can simulate.
	job, err := s.Queue().Enqueue("acme", testSpec(200_000_000))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	waitFor(t, 30*time.Second, "dead-letter", func() bool {
		j, _ := s.Queue().Get(job.ID)
		return j.State == jobq.StateDead
	})
	got, _ := s.Queue().Get(job.ID)
	if got.Attempt != 2 {
		t.Fatalf("dead job Attempt = %d, want 2", got.Attempt)
	}
	if !strings.Contains(got.Error, "deadline") {
		t.Fatalf("dead job error %q does not mention the deadline", got.Error)
	}
	if got.CheckpointAt == 0 {
		t.Fatal("timed-out attempts left no checkpoint (ratchet broken)")
	}
	if v, err := s.m.counterValue("svc_jobs_dead_total"); err != nil || v != 1 {
		t.Fatalf("svc_jobs_dead_total = %d, %v; want 1", v, err)
	}
	if v, err := s.m.counterValue("svc_jobs_retried_total"); err != nil || v != 1 {
		t.Fatalf("svc_jobs_retried_total = %d, %v; want 1", v, err)
	}
}

// TestPoisonJobIsolated: a job whose payload never was a valid spec
// fails fast on every attempt, dead-letters, and leaves the queue fully
// serviceable for the jobs behind it.
func TestPoisonJobIsolated(t *testing.T) {
	s := newTestService(t, Config{
		Workers:            1,
		MaxAttempts:        3,
		CheckpointInterval: -1,
		Retry:              jobq.Backoff{Base: time.Millisecond, Cap: 2 * time.Millisecond, Factor: 2},
	})
	defer shutdownNow(t, s)
	poison, err := s.Queue().Enqueue("acme", json.RawMessage(`{"config":"btb2"}`)) // no workload at all
	if err != nil {
		t.Fatal(err)
	}
	good, err := s.Queue().Enqueue("acme", testSpec(200_000))
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	waitFor(t, 30*time.Second, "poison dead-letter and good completion", func() bool {
		p, _ := s.Queue().Get(poison.ID)
		g, _ := s.Queue().Get(good.ID)
		return p.State == jobq.StateDead && g.State == jobq.StateDone
	})
	p, _ := s.Queue().Get(poison.ID)
	if p.Attempt != 3 {
		t.Fatalf("poison job Attempt = %d, want 3", p.Attempt)
	}
	if !strings.Contains(p.Error, "spec") {
		t.Fatalf("poison job error %q does not mention the spec", p.Error)
	}
}
