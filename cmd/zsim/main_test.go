package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// buildZsim builds the zsim binary into a temporary directory.
func buildZsim(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("building the zsim binary skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "zsim")
	build := exec.Command("go", "build", "-o", bin, "bulkpreload/cmd/zsim")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building zsim: %v", err)
	}
	return bin
}

// TestCompareHonoursFaultFlags: -compare runs the three configurations
// under the same soft-error injection a single run gets, so the fault
// flags change its CPIs.
func TestCompareHonoursFaultFlags(t *testing.T) {
	bin := buildZsim(t)
	run := func(extra ...string) []byte {
		t.Helper()
		args := append([]string{"-compare", "-insts", "50000", "-warmup", "5000"}, extra...)
		out, err := exec.Command(bin, args...).Output()
		if err != nil {
			t.Fatalf("zsim %v: %v", args, err)
		}
		return out
	}
	clean := run()
	faulted := run("-fault-rate", "1000")
	if bytes.Equal(clean, faulted) {
		t.Errorf("-compare -fault-rate 1000 printed the fault-free comparison:\n%s", faulted)
	}
	if again := run("-fault-rate", "1000"); !bytes.Equal(faulted, again) {
		t.Errorf("faulted comparison is not reproducible:\n%s\nvs\n%s", faulted, again)
	}
}

// TestCompareRefusesSingleRunFlags: -compare exits 2 on a flag only a
// single run uses, instead of dropping it silently.
func TestCompareRefusesSingleRunFlags(t *testing.T) {
	bin := buildZsim(t)
	dir := t.TempDir()
	for _, args := range [][]string{
		{"-resume", filepath.Join(dir, "run.ckpt")},
		{"-checkpoint", filepath.Join(dir, "run.ckpt")},
		{"-events", "5"},
		{"-timeline", "2"},
		{"-interval", "10000"},
		{"-jsonl", filepath.Join(dir, "events.jsonl")},
		{"-chrome", filepath.Join(dir, "trace.json")},
		{"-metrics-addr", "127.0.0.1:0"},
	} {
		cmd := exec.Command(bin, append([]string{"-compare", "-insts", "20000"}, args...)...)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("zsim -compare %v: err %v, want exit status 2", args, err)
			continue
		}
		if !bytes.Contains(stderr.Bytes(), []byte(args[0])) {
			t.Errorf("zsim -compare %v: stderr %q does not name %s", args, stderr.String(), args[0])
		}
	}
}
