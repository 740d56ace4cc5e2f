package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDiffgateStdoutDeterministic: two runs of the differential gate
// print the same stdout, so it can be byte-compared across commits like
// every other experiment. Timing belongs on stderr: two short runs can
// round to the same seconds figure, so stdout must not carry one at all.
func TestDiffgateStdoutDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("building the experiments binary skipped in -short mode")
	}
	bin := filepath.Join(t.TempDir(), "experiments")
	build := exec.Command("go", "build", "-o", bin, "bulkpreload/cmd/experiments")
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("building experiments: %v", err)
	}
	run := func() []byte {
		t.Helper()
		out, err := exec.Command(bin, "-only", "diffgate", "-insts", "20000").Output()
		if err != nil {
			t.Fatalf("experiments -only diffgate: %v", err)
		}
		return out
	}
	first, second := run(), run()
	if !bytes.Equal(first, second) {
		t.Errorf("diffgate stdout differs between runs:\n%s\nvs\n%s", first, second)
	}
	if wall := regexp.MustCompile(`\d+\.\d+s\b`).Find(first); wall != nil {
		t.Errorf("diffgate stdout carries the wall time %q:\n%s", wall, first)
	}
}
