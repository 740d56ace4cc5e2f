package engine

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"math/rand"
	"strconv"
	"testing"

	"bulkpreload/internal/btb"
	"bulkpreload/internal/core"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/workload"
	"bulkpreload/internal/zaddr"
)

// batchProfile is a workload small enough to run dozens of times in the
// equivalence tests yet rich enough to exercise every step side effect
// (surprises, transfers, search restarts).
func batchProfile(seed int64) workload.Profile {
	return workload.Profile{
		Name: "batch-eq", UniqueBranches: 6_000, TakenFraction: 0.64,
		Instructions: 60_000, HotFraction: 0.15, WindowFunctions: 32,
		CallsPerTransaction: 6, Seed: seed,
	}
}

// runBatched runs src on e through the production loop, never canceled
// and from power-on state.
func runBatched(t testing.TB, e *Engine, src trace.Source, configName string) Result {
	t.Helper()
	r, err := e.RunBatched(context.Background(), src, configName, nil)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// requireResultsEqual fails the test with a field-level report unless
// the two results are bit-identical, including the final metric
// snapshot and every interval snapshot.
func requireResultsEqual(t *testing.T, label string, serial, batched Result) {
	t.Helper()
	sj, err := json.Marshal(serial)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(batched)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sj, bj) {
		t.Errorf("%s: result fields differ\n  serial:  %s\n  batched: %s", label, sj, bj)
	}
	if (serial.Metrics == nil) != (batched.Metrics == nil) {
		t.Fatalf("%s: metrics present in one path only", label)
	}
	if serial.Metrics != nil {
		for _, d := range obs.Diff(*serial.Metrics, *batched.Metrics) {
			t.Errorf("%s: metrics: %s", label, d)
		}
	}
	if len(serial.Snapshots) != len(batched.Snapshots) {
		t.Fatalf("%s: snapshot count %d != %d", label, len(serial.Snapshots), len(batched.Snapshots))
	}
	for k := range serial.Snapshots {
		for _, d := range obs.Diff(serial.Snapshots[k], batched.Snapshots[k]) {
			t.Errorf("%s: interval snapshot %d: %s", label, k, d)
		}
	}
}

// TestRunBatchedMatchesRun proves the batched stepping path — including
// the non-branch bulk fast path — is bit-identical to the
// record-at-a-time loop, with warmup, interval snapshots, and
// checkpoints all armed so every counter-triggered boundary lands
// inside batches.
func TestRunBatchedMatchesRun(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(*Params, *int)
	}{
		{"plain", func(p *Params, _ *int) {}},
		{"warmup", func(p *Params, _ *int) { p.WarmupInstructions = 10_000 }},
		{"snapshots", func(p *Params, _ *int) { p.SnapshotInterval = 7_000 }},
		{"checkpoints", func(p *Params, ckpts *int) {
			p.CheckpointInterval = 9_000
			p.CheckpointSink = func(*Checkpoint) { *ckpts++ }
		}},
		{"everything", func(p *Params, ckpts *int) {
			p.WarmupInstructions = 10_000
			p.SnapshotInterval = 7_000
			p.CheckpointInterval = 9_000
			p.CheckpointSink = func(*Checkpoint) { *ckpts++ }
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, cfg := range []struct {
				name string
				c    core.Config
			}{
				{"one-level", core.OneLevelConfig()},
				{"btb2", core.DefaultConfig()},
			} {
				serialCkpts, batchCkpts := 0, 0

				params := DefaultParams()
				params.WarmupInstructions = 0
				tc.mutate(&params, &serialCkpts)
				serial := New(cfg.c, params).Run(workload.New(batchProfile(4242)), cfg.name)

				params = DefaultParams()
				params.WarmupInstructions = 0
				tc.mutate(&params, &batchCkpts)
				batched := runBatched(t, New(cfg.c, params), workload.New(batchProfile(4242)), cfg.name)

				requireResultsEqual(t, tc.name+"/"+cfg.name, serial, batched)
				if serialCkpts != batchCkpts {
					t.Errorf("%s/%s: checkpoint count %d != %d", tc.name, cfg.name, serialCkpts, batchCkpts)
				}
			}
		})
	}
}

// TestStepBatchArbitrarySplits feeds the same trace through StepBatch in
// deliberately awkward chunk sizes (1, primes, the full trace) and
// demands the same answer every time — batch boundaries must be
// invisible.
func TestStepBatchArbitrarySplits(t *testing.T) {
	params := DefaultParams()
	params.WarmupInstructions = 10_000
	params.SnapshotInterval = 7_000
	ins := trace.Collect(workload.New(batchProfile(777)))

	ref := New(core.DefaultConfig(), params).Run(trace.NewSliceSource("splits", ins), "btb2")

	for _, chunk := range []int{1, 7, 97, 1024, len(ins)} {
		e := New(core.DefaultConfig(), params)
		e.reset()
		e.res.Trace, e.res.Config = "splits", "btb2"
		for lo := 0; lo < len(ins); lo += chunk {
			hi := lo + chunk
			if hi > len(ins) {
				hi = len(ins)
			}
			e.StepBatch(ins[lo:hi])
		}
		e.finishResult()
		requireResultsEqual(t, "chunk="+strconv.Itoa(chunk), ref, e.res)
	}
}

// TestBulkFastPathFires measures how often the bulk window admits the
// next record on a real workload: equivalence proofs are vacuous if the
// fast path never fires, so a workload with sequential non-branch runs
// must show hits.
func TestBulkFastPathFires(t *testing.T) {
	params := DefaultParams()
	params.WarmupInstructions = 0
	ins := trace.Collect(workload.New(batchProfile(99)))
	e := New(core.DefaultConfig(), params)
	e.reset()
	hits := 0
	for i := range ins {
		lo, span, limit := e.bulkWindow()
		if limit > 0 && ins[i].Kind == trace.NotBranch && uint64(ins[i].Addr-lo) < span {
			hits++
		}
		e.step(ins[i])
	}
	if hits == 0 {
		t.Fatal("bulk fast path never fired on a real workload")
	}
	t.Logf("bulk fast path accepted %d of %d instructions (%.1f%%)",
		hits, len(ins), 100*float64(hits)/float64(len(ins)))
}

// stepBulkOK is the per-record eligibility predicate bulkWindow
// replaced, kept as its reference: whether in may take the bulk fast
// path when insts records have been counted.
func stepBulkOK(e *Engine, in *trace.Inst, insts int64) bool {
	if in.Kind != trace.NotBranch {
		return false
	}
	if e.nextCkpt > 0 && insts >= e.nextCkpt {
		return false
	}
	if e.nextSnap > 0 && insts+1 >= e.nextSnap {
		return false
	}
	if !e.warmTaken && e.params.WarmupInstructions > 0 && insts == e.params.WarmupInstructions {
		return false
	}
	if !e.haveFetch || zaddr.Align(in.Addr, uint64(e.params.L1I.LineBytes)) != e.curFetchLine {
		return false
	}
	if !e.haveSearch {
		return false
	}
	target := zaddr.RowBase(in.Addr)
	if e.searchLine <= target {
		return false
	}
	if !e.searchBlocked && e.searchLine < target+leadRows*zaddr.RowBytes {
		return false
	}
	return true
}

// TestBulkWindowMatchesPredicate draws random engine states around
// every boundary the predicate tests — checkpoint, snapshot and warmup
// counts, fetch-line edges, the search line near zero, near the fetch
// line and near the top of the address space, blocked and unblocked —
// and requires the window to admit exactly the records the per-record
// predicate admitted, at every position of a run. The only allowed
// difference is the documented corner: rows whose lead test wraps
// around the top of the address space stay out of the window.
//
// On every state it also requires bulkWindow to be inert: RunBatched
// skips per-record stepping on the strength of a window computed
// without side effects, so the engine's checkpoint, its registry
// snapshot and the batched path's own counters must read the same
// before and after the call. Neither the window nor the predicate reads
// the hierarchy, so the engine gets a minimal one: hierarchy state is
// most of what a checkpoint costs to take and encode.
func TestBulkWindowMatchesPredicate(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	params := DefaultParams()
	params.CheckpointSink = func(*Checkpoint) {}
	e := New(minimalHierarchy(), params)
	var enc bytes.Buffer
	gobEnc := gob.NewEncoder(&enc)
	// inertState is everything bulkWindow could leave a mark on. The
	// encoder is shared, and primed below, so equal checkpoints encode
	// to equal bytes (gob sends type descriptors only once).
	inertState := func() (string, obs.Snapshot, [3]int64) {
		enc.Reset()
		if err := gobEnc.Encode(e.Checkpoint()); err != nil {
			t.Fatal(err)
		}
		return enc.String(), e.reg.Snapshot(0), [3]int64{e.nextCkpt, e.bulkRecords, e.slowRecords}
	}
	inertState()
	kinds := []trace.Kind{trace.NotBranch, trace.NotBranch, trace.NotBranch, trace.CondDirect, trace.PreloadHint}
	const top = ^zaddr.Addr(0)
	admitted, corner := 0, 0
	for state := 0; state < 20000; state++ {
		line := uint64(32) << r.Intn(6) // 32..1024-byte L1I lines
		e.params.L1I.LineBytes = int(line)
		insts := int64(r.Intn(40))
		e.res.Instructions = insts
		near := func() int64 {
			if r.Intn(3) == 0 {
				return 0 // boundary off
			}
			return insts + int64(r.Intn(9)) - 3
		}
		e.nextCkpt, e.nextSnap = near(), near()
		e.params.WarmupInstructions = near()
		if e.params.WarmupInstructions < 0 {
			e.params.WarmupInstructions = 0
		}
		e.warmTaken = r.Intn(3) == 0
		e.haveFetch, e.haveSearch = r.Intn(8) != 0, r.Intn(8) != 0
		e.searchBlocked = r.Intn(2) == 0
		var base zaddr.Addr
		switch r.Intn(3) {
		case 0: // near zero
			base = zaddr.Addr(r.Intn(4096))
		case 1: // near the top of the address space
			base = top - zaddr.Addr(r.Intn(4096))
		default:
			base = zaddr.Addr(r.Uint64())
		}
		e.curFetchLine = zaddr.Align(base, line)
		// The search line is a row base near the fetch line, or anywhere
		// near the base (including across zero).
		rows := zaddr.Addr(r.Intn(48)) - 8
		e.searchLine = zaddr.RowBase(e.curFetchLine + rows*zaddr.RowBytes)
		if r.Intn(4) == 0 {
			e.searchLine = zaddr.RowBase(base + zaddr.Addr(r.Intn(1024)) - 512)
		}
		ck0, reg0, own0 := inertState()
		lo, span, limit := e.bulkWindow()
		ck1, reg1, own1 := inertState()
		if ck0 != ck1 || own0 != own1 {
			t.Fatalf("state %d: bulkWindow changed engine state: checkpoint equal %v, nextCkpt/bulk/slow %v -> %v",
				state, ck0 == ck1, own0, own1)
		}
		for _, d := range obs.Diff(reg0, reg1) {
			t.Fatalf("state %d: bulkWindow changed the registry: %s", state, d)
		}
		for probe := 0; probe < 24; probe++ {
			in := trace.Inst{Kind: kinds[r.Intn(len(kinds))], Length: 4}
			switch r.Intn(3) {
			case 0:
				in.Addr = e.curFetchLine + zaddr.Addr(r.Intn(int(line)+128)) - 64
			case 1:
				in.Addr = e.searchLine + zaddr.Addr(r.Intn(512)) - 384
			default:
				in.Addr = zaddr.Addr(r.Uint64())
			}
			// A run reaches position c only through positions 0..c-1, so
			// the old loop admitted position c of a run of this record
			// iff the predicate held at every position up to c.
			want := true
			for c := int64(0); c < 12; c++ {
				want = want && stepBulkOK(e, &in, insts+c)
				got := c < limit && in.Kind == trace.NotBranch && uint64(in.Addr-lo) < span
				if got == want {
					if got {
						admitted++
					}
					continue
				}
				if !got && zaddr.RowBase(in.Addr) >= top-leadRows*zaddr.RowBytes+1 && !e.searchBlocked {
					corner++
					continue
				}
				t.Fatalf("state %d: record %v at %#x, run position %d: window admits %v, predicate %v\n"+
					"  insts %d ckpt %d snap %d warm %d/%v fetch %v %#x line %d search %v %#x blocked %v window [%#x +%d) limit %d",
					state, in.Kind, uint64(in.Addr), c, got, want,
					insts, e.nextCkpt, e.nextSnap, e.params.WarmupInstructions, e.warmTaken,
					e.haveFetch, uint64(e.curFetchLine), line, e.haveSearch, uint64(e.searchLine), e.searchBlocked,
					uint64(lo), span, limit)
			}
		}
	}
	if admitted == 0 {
		t.Fatal("no random state admitted a record")
	}
	t.Logf("%d admissions agreed; %d wrap-corner records kept out of the window", admitted, corner)
}

// minimalHierarchy is the smallest valid first-level-only hierarchy:
// two-row, one-way BTB1 and BTBP and no auxiliary predictors.
func minimalHierarchy() core.Config {
	c := core.OneLevelConfig()
	c.BTB1 = btb.Config{Name: "BTB1", Rows: 2, Ways: 1, IndexHi: 58, IndexLo: 58}
	c.BTBP = btb.Config{Name: "BTBP", Rows: 2, Ways: 1, IndexHi: 58, IndexLo: 58}
	c.PHTEntries, c.CTBEntries, c.FITEntries, c.SurpriseBHTEntries = 0, 0, 0, 0
	return c
}

// TestRunBatchedDegenerateBatches covers sources shorter than one batch
// and empty sources.
func TestRunBatchedDegenerateBatches(t *testing.T) {
	params := DefaultParams()
	params.WarmupInstructions = 0

	empty := trace.NewSliceSource("empty", nil)
	res := runBatched(t, New(core.DefaultConfig(), params), empty, "btb2")
	if res.Instructions != 0 {
		t.Fatalf("empty source simulated %d instructions", res.Instructions)
	}

	tiny := trace.Collect(workload.New(batchProfile(5)))[:3]
	serial := New(core.DefaultConfig(), params).Run(trace.NewSliceSource("tiny", tiny), "btb2")
	batched := runBatched(t, New(core.DefaultConfig(), params), trace.NewSliceSource("tiny", tiny), "btb2")
	requireResultsEqual(t, "tiny", serial, batched)
}
