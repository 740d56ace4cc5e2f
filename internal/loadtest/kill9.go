package loadtest

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/jobq"
	"bulkpreload/internal/sim"
)

// kill9CheckpointInterval is the daemon's checkpoint cadence in this
// scenario; the serial oracle must run with the same value so the
// recovered result compares bit-for-bit.
const kill9CheckpointInterval = 50_000

// runKill9 is the crash drill the service exists for: SIGKILL the
// daemon mid-job, restart it on the same directory, and require that
// the job resumes from its durable checkpoint and finishes with a
// Result byte-identical to a serial checkpoint+resume oracle built
// from the checkpoint file the crash left behind.
func runKill9(h *harness) error {
	dir, err := tempDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	// First incarnation.
	d, err := startDaemon(h, dir)
	if err != nil {
		return err
	}
	defer d.killHard()

	specBody := specJSON("tpf-airline", 2_500_000)
	status, _, body, err := submit(d.url, "crash", specBody)
	if err != nil || status != http.StatusAccepted {
		return fmt.Errorf("submit: status %d, err %v", status, err)
	}
	var job jobq.Job
	if err := json.Unmarshal(body, &job); err != nil {
		return fmt.Errorf("decoding submit response: %w", err)
	}

	// Let it run until a checkpoint is durable, then pull the plug.
	if err := waitUntil(60*time.Second, "a durable checkpoint", func() bool {
		j, err := d.getJob(job.ID)
		return err == nil && j.CheckpointAt > 0
	}); err != nil {
		return err
	}
	if err := d.killHard(); err != nil {
		return fmt.Errorf("kill -9: %w", err)
	}
	h.logf("killed daemon pid %d mid-job", d.cmd.Process.Pid)

	// The checkpoint file is now frozen: read the exact state the next
	// incarnation will resume from (the oracle's starting point).
	ck, err := engine.ReadCheckpointFile(filepath.Join(dir, job.ID+".ckpt"))
	if err != nil {
		return fmt.Errorf("reading crash checkpoint: %w", err)
	}

	// Second incarnation: recover, resume, finish.
	d2, err := startDaemon(h, dir)
	if err != nil {
		return fmt.Errorf("restarting daemon: %w", err)
	}
	defer d2.killHard()
	if err := waitUntil(240*time.Second, "recovered job to finish", func() bool {
		j, err := d2.getJob(job.ID)
		return err == nil && j.State == jobq.StateDone
	}); err != nil {
		return err
	}
	got, err := d2.getJob(job.ID)
	if err != nil {
		return err
	}
	if got.Recovered != 1 {
		return fmt.Errorf("job Recovered = %d, want 1", got.Recovered)
	}
	if got.ResumedFrom != ck.Instructions {
		return fmt.Errorf("job resumed from %d, checkpoint file says %d", got.ResumedFrom, ck.Instructions)
	}
	if err := d2.stopGraceful(); err != nil {
		return fmt.Errorf("graceful stop after recovery: %w", err)
	}

	// Serial oracle: resume the same checkpoint on a fresh engine with
	// the daemon's parameters. Bit-identical or it does not count.
	var spec sim.Spec
	if err := json.Unmarshal(specBody, &spec); err != nil {
		return err
	}
	unit, err := spec.Unit()
	if err != nil {
		return err
	}
	params := unit.Params
	params.CheckpointInterval = kill9CheckpointInterval
	params.CheckpointSink = func(*engine.Checkpoint) {}
	oracle, err := engine.New(unit.Config, params).
		RunBatched(context.Background(), unit.NewSource(), unit.ConfigName, ck)
	if err != nil {
		return fmt.Errorf("oracle resume: %w", err)
	}
	wantJSON, err := json.Marshal(oracle)
	if err != nil {
		return err
	}
	if !bytes.Equal(bytes.TrimSpace(got.Result), wantJSON) {
		return fmt.Errorf("recovered result diverges from serial checkpoint+resume oracle:\n got %s\nwant %s", got.Result, wantJSON)
	}
	h.logf("resumed from %d instructions after SIGKILL, result bit-identical to oracle", ck.Instructions)
	return nil
}

// daemon is one zsimd subprocess under test.
type daemon struct {
	cmd  *exec.Cmd
	url  string
	dead bool
}

// startDaemon launches the zsimd binary against dir and waits for it
// to publish its bound address.
func startDaemon(h *harness, dir string) (*daemon, error) {
	addrFile := filepath.Join(dir, "zsimd.addr")
	os.Remove(addrFile)
	cmd := exec.Command(h.opts.Bin,
		"-dir", dir,
		"-addr", "127.0.0.1:0",
		"-addr-file", addrFile,
		"-workers", "1",
		"-checkpoint-every", fmt.Sprint(kill9CheckpointInterval),
	)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", h.opts.Bin, err)
	}
	d := &daemon{cmd: cmd}
	err := waitUntil(30*time.Second, "daemon address file", func() bool {
		b, err := os.ReadFile(addrFile)
		if err != nil || len(bytes.TrimSpace(b)) == 0 {
			return false
		}
		d.url = "http://" + strings.TrimSpace(string(b))
		return true
	})
	if err != nil {
		d.killHard()
		return nil, err
	}
	return d, nil
}

// getJob fetches one job's status from the daemon.
func (d *daemon) getJob(id string) (jobq.Job, error) {
	resp, err := http.Get(d.url + "/v1/jobs/" + id)
	if err != nil {
		return jobq.Job{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobq.Job{}, fmt.Errorf("job %s: status %d", id, resp.StatusCode)
	}
	var j jobq.Job
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return jobq.Job{}, err
	}
	return j, nil
}

// killHard SIGKILLs the daemon — the crash injection. Idempotent.
func (d *daemon) killHard() error {
	if d.dead {
		return nil
	}
	d.dead = true
	if err := d.cmd.Process.Kill(); err != nil {
		return err
	}
	_ = d.cmd.Wait()
	return nil
}

// stopGraceful sends SIGTERM and waits for the drain to complete.
func (d *daemon) stopGraceful() error {
	if d.dead {
		return nil
	}
	d.dead = true
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- d.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = d.cmd.Process.Kill()
		return fmt.Errorf("daemon ignored SIGTERM for 30s")
	}
}

// tempDir creates a scratch directory for one scenario.
func tempDir() (string, error) {
	return os.MkdirTemp("", "zsimd-loadtest-*")
}
