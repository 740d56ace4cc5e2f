package sim

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"bulkpreload/internal/engine"
	"bulkpreload/internal/obs"
)

// The serial-oracle differential gate. Speed is worthless if it changes
// results: every batching and scheduling optimization in this package
// must be invisible in the output. VerifyDifferential runs the same
// units through the single-threaded record-at-a-time oracle
// (RunUnitsSerial) and the work-stealing batched pipeline (RunUnits)
// and demands bit-identical results — every Result field, every metric
// in the final registry snapshot, every interval snapshot. The
// differential test suite and the `diffgate` experiment both sit on
// this entry point.

// VerifyDifferential runs units through both paths and returns one
// human-readable line per mismatch; an empty slice proves the parallel
// pipeline reproduced the oracle bit for bit. The returned error joins
// shard failures from either path (a failed shard is also reported as a
// mismatch only when the two paths disagree about it).
func VerifyDifferential(ctx context.Context, workers int, units []Unit) ([]string, error) {
	serial, serr := RunUnitsSerial(units)
	parallel, perr := RunUnits(ctx, workers, units)
	var mismatches []string
	for i := range units {
		mismatches = append(mismatches, DiffResults(units[i].Label, serial[i], parallel[i])...)
	}
	return mismatches, errors.Join(serr, perr)
}

// DiffResults compares two engine results field by field — the scalar
// fields through their canonical JSON encoding, then the final metric
// snapshot and every interval snapshot through obs.Diff — and returns
// one line per difference, each prefixed with label.
func DiffResults(label string, serial, parallel engine.Result) []string {
	var out []string
	// The final snapshot is compared series by series below, so a counter
	// difference names its series instead of dumping both encodings.
	sm, pm := serial.Metrics, parallel.Metrics
	serial.Metrics, parallel.Metrics = nil, nil
	sj, serr := json.Marshal(serial)
	pj, perr := json.Marshal(parallel)
	if serr != nil || perr != nil {
		out = append(out, fmt.Sprintf("%s: marshal failed: serial=%v parallel=%v", label, serr, perr))
	} else if !bytes.Equal(sj, pj) {
		out = append(out, fmt.Sprintf("%s: result fields differ:\n  serial:   %s\n  parallel: %s", label, sj, pj))
	}
	out = append(out, diffSnapshotPtr(label, "metrics", sm, pm)...)
	if len(serial.Snapshots) != len(parallel.Snapshots) {
		out = append(out, fmt.Sprintf("%s: interval snapshot count: %d != %d",
			label, len(serial.Snapshots), len(parallel.Snapshots)))
		return out
	}
	for k := range serial.Snapshots {
		for _, d := range obs.Diff(serial.Snapshots[k], parallel.Snapshots[k]) {
			out = append(out, fmt.Sprintf("%s: interval snapshot %d: %s", label, k, d))
		}
	}
	return out
}

func diffSnapshotPtr(label, what string, a, b *obs.Snapshot) []string {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil || b == nil:
		return []string{fmt.Sprintf("%s: %s: present in one path only (serial=%v parallel=%v)",
			label, what, a != nil, b != nil)}
	}
	var out []string
	for _, d := range obs.Diff(*a, *b) {
		out = append(out, fmt.Sprintf("%s: %s: %s", label, what, d))
	}
	return out
}
