package engine

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bulkpreload/internal/core"
	"bulkpreload/internal/predictor"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/zaddr"
)

// checkpointMagic identifies a checkpoint stream; the trailing byte is
// the format version.
const checkpointMagic = "ZBPC\x01"

// Checkpoint is a restartable snapshot of one simulation: the engine's
// accounting and pipeline position plus the hierarchy's architectural
// state (core.State). It deliberately excludes the instruction caches,
// miss detector, BTB2 trackers, steering, FIT, prefetch bookkeeping and
// all metric counters-of-structures — transients that restart cold at
// resume, costing at most a brief re-warm (see docs/ROBUSTNESS.md).
//
// A checkpoint does not embed Params or the hierarchy Config (both hold
// function values and are code, not data); RunBatched must resume it on
// an engine built from the same configuration the checkpoint was taken
// under. Trace and Config names are carried for cross-checking.
type Checkpoint struct {
	Trace  string
	Config string

	// Instructions is the number of trace records fully processed; a
	// resume skips exactly this many records.
	Instructions int64
	Clock        int64 // decode/completion clock, ticks
	BPClock      int64 // search pipeline clock, ticks

	Outcomes         stats.Counts
	MispredictCycles float64
	SurpriseCycles   float64
	ICacheCycles     float64

	WarmTaken      bool
	WarmCycles     int64
	WarmOutcomes   stats.Counts
	WarmMispredict float64
	WarmSurprise   float64
	WarmICache     float64

	SearchLine    uint64
	SearchOffset  uint64
	HaveSearch    bool
	SearchBlocked bool

	CurFetchLine uint64
	HaveFetch    bool

	PrevTakenBranch uint64
	HavePrevTaken   bool
	LastNTRow       uint64
	LastNTValid     bool

	SnapSeq  int64
	NextSnap int64

	// Seen is the sorted set of ever-executed branch addresses, needed to
	// keep the compulsory/capacity surprise classification stable across
	// a resume.
	Seen []uint64

	Core core.State
}

// Checkpoint captures the engine's current restartable state.
func (e *Engine) Checkpoint() *Checkpoint {
	return &Checkpoint{
		Trace:            e.res.Trace,
		Config:           e.res.Config,
		Instructions:     e.res.Instructions,
		Clock:            int64(e.clock),
		BPClock:          int64(e.bpClock),
		Outcomes:         e.res.Outcomes,
		MispredictCycles: e.res.MispredictCycles,
		SurpriseCycles:   e.res.SurpriseCycles,
		ICacheCycles:     e.res.ICacheCycles,
		WarmTaken:        e.warmTaken,
		WarmCycles:       int64(e.warmCycles),
		WarmOutcomes:     e.warmOutcomes,
		WarmMispredict:   e.warmMispredict,
		WarmSurprise:     e.warmSurprise,
		WarmICache:       e.warmICache,
		SearchLine:       uint64(e.searchLine),
		SearchOffset:     uint64(e.searchOffset),
		HaveSearch:       e.haveSearch,
		SearchBlocked:    e.searchBlocked,
		CurFetchLine:     uint64(e.curFetchLine),
		HaveFetch:        e.haveFetch,
		PrevTakenBranch:  uint64(e.prevTakenBranch),
		HavePrevTaken:    e.havePrevTaken,
		LastNTRow:        uint64(e.lastNTRow),
		LastNTValid:      e.lastNTValid,
		SnapSeq:          e.snapSeq,
		NextSnap:         e.nextSnap,
		Seen:             e.seen.sorted(),
		Core:             e.hier.State(),
	}
}

// restore overwrites the (freshly reset) engine state with ck.
func (e *Engine) restore(ck *Checkpoint) error {
	if err := e.hier.RestoreState(ck.Core); err != nil {
		return err
	}
	e.res.Trace = ck.Trace
	e.res.Config = ck.Config
	e.res.Instructions = ck.Instructions
	e.clock = predictor.Ticks(ck.Clock)
	e.bpClock = predictor.Ticks(ck.BPClock)
	e.res.Outcomes = ck.Outcomes
	e.res.MispredictCycles = ck.MispredictCycles
	e.res.SurpriseCycles = ck.SurpriseCycles
	e.res.ICacheCycles = ck.ICacheCycles
	e.warmTaken = ck.WarmTaken
	e.warmCycles = predictor.Ticks(ck.WarmCycles)
	e.warmOutcomes = ck.WarmOutcomes
	e.warmMispredict = ck.WarmMispredict
	e.warmSurprise = ck.WarmSurprise
	e.warmICache = ck.WarmICache
	e.searchLine = zaddr.Addr(ck.SearchLine)
	e.searchOffset = uint(ck.SearchOffset)
	e.haveSearch = ck.HaveSearch
	e.searchBlocked = ck.SearchBlocked
	e.curFetchLine = zaddr.Addr(ck.CurFetchLine)
	e.haveFetch = ck.HaveFetch
	e.prevTakenBranch = zaddr.Addr(ck.PrevTakenBranch)
	e.havePrevTaken = ck.HavePrevTaken
	e.lastNTRow = zaddr.Addr(ck.LastNTRow)
	e.lastNTValid = ck.LastNTValid
	e.snapSeq = ck.SnapSeq
	e.nextSnap = ck.NextSnap
	for _, a := range ck.Seen {
		e.seen.add(zaddr.Addr(a))
	}
	if e.params.CheckpointInterval > 0 {
		e.nextCkpt = ck.Instructions + e.params.CheckpointInterval
	}
	return nil
}

// Write encodes the checkpoint (magic header + gob payload). Gob rather
// than JSON: branch addresses are full uint64s, which JSON would round
// through float64.
func (ck *Checkpoint) Write(w io.Writer) error {
	if _, err := io.WriteString(w, checkpointMagic); err != nil {
		return fmt.Errorf("engine: writing checkpoint header: %w", err)
	}
	if err := gob.NewEncoder(w).Encode(ck); err != nil {
		return fmt.Errorf("engine: encoding checkpoint: %w", err)
	}
	return nil
}

// ReadCheckpoint decodes a checkpoint written by Write.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	hdr := make([]byte, len(checkpointMagic))
	if _, err := io.ReadFull(r, hdr); err != nil {
		return nil, fmt.Errorf("engine: reading checkpoint header: %w", err)
	}
	if string(hdr) != checkpointMagic {
		return nil, fmt.Errorf("engine: not a checkpoint file (bad magic %q)", hdr)
	}
	ck := new(Checkpoint)
	if err := gob.NewDecoder(r).Decode(ck); err != nil {
		return nil, fmt.Errorf("engine: decoding checkpoint: %w", err)
	}
	return ck, nil
}

// WriteCheckpointFile atomically persists the checkpoint: written to a
// temp file in the target directory, synced, renamed into place, and
// the directory synced, so a crash at any point either leaves the
// previous good checkpoint or the complete new one — never a torn file,
// and never a rename that evaporates with the directory's page cache.
//
//zbp:durable
func WriteCheckpointFile(path string, ck *Checkpoint) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("engine: creating checkpoint temp file: %w", err)
	}
	tmp := f.Name()
	if err := ck.Write(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("engine: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("engine: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("engine: installing checkpoint: %w", err)
	}
	return SyncDir(dir)
}

// SyncDir fsyncs a directory, making previously renamed/created entries
// durable. A rename is atomic with respect to readers immediately, but
// only survives a power loss once the directory itself reaches disk —
// the gap that used to let a "committed" checkpoint or journal vanish
// on crash.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("engine: opening directory for sync: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("engine: syncing directory %s: %w", dir, err)
	}
	return nil
}

// ReadCheckpointFile loads a checkpoint persisted by WriteCheckpointFile.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("engine: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}
