package engine

import (
	"fmt"

	"bulkpreload/internal/cache"
	"bulkpreload/internal/core"
	"bulkpreload/internal/fault"
	"bulkpreload/internal/obs"
	"bulkpreload/internal/obs/span"
	"bulkpreload/internal/predictor"
	"bulkpreload/internal/stats"
	"bulkpreload/internal/trace"
	"bulkpreload/internal/zaddr"
)

// Result summarizes one simulation run.
type Result struct {
	Trace        string
	Config       string
	Instructions int64
	Cycles       float64 // total cycles (fractional: tick-resolution)

	Outcomes stats.Counts

	// Penalty cycle attribution.
	MispredictCycles float64
	SurpriseCycles   float64
	ICacheCycles     float64

	// Fault aggregates the run's soft-error injection counters across
	// every structure (all zero when injection is disabled).
	Fault fault.Stats

	// Metrics is the final registry snapshot of the run: every counter,
	// gauge and histogram of every structure, read by series name (for
	// example Metrics.Counter("btb2_lookups_total")). It is the only
	// record of the component counters. Its values are raw cumulative,
	// warmup included, so they stay comparable with the interval
	// snapshots and exported event counts; use it for cross-shard
	// aggregation (obs.Snapshot.Merge) and trace reconciliation.
	Metrics *obs.Snapshot

	// Snapshots are the interval snapshots taken every
	// Params.SnapshotInterval instructions (empty when the interval is
	// zero); feed them to report.PhaseTimeline.
	Snapshots []obs.Snapshot `json:"-"`
}

// CPI returns cycles per instruction.
func (r Result) CPI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return r.Cycles / float64(r.Instructions)
}

// Improvement returns the percent CPI improvement of r over base
// (positive = r is faster), the paper's Figure 2/3/5/6/7 metric.
func (r Result) Improvement(base Result) float64 {
	if base.CPI() == 0 {
		return 0
	}
	return 100 * (base.CPI() - r.CPI()) / base.CPI()
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("%s/%s: CPI %.4f over %d insts (bad branches %.1f%%)",
		r.Trace, r.Config, r.CPI(), r.Instructions, 100*r.Outcomes.BadRate())
}

// Engine runs traces against one hierarchy configuration.
type Engine struct {
	params Params
	hcfg   core.Config

	hier    *core.Hierarchy
	l1i     *cache.Cache
	l2i     *cache.Cache
	missDet *predictor.MissDetector

	// clock is decode/completion time; bpClock is the search pipeline's
	// accumulated position. Both in ticks.
	clock   predictor.Ticks
	bpClock predictor.Ticks

	// search pipeline position along the committed path.
	searchLine   zaddr.Addr // base of the next row to search
	searchOffset uint       // offset within the first row after a redirect
	haveSearch   bool
	// searchBlocked is set when lookahead found a row with first-level
	// content: the pipeline would predict there and re-index, so
	// lookahead pauses until the committed path reaches that row.
	searchBlocked bool

	curFetchLine zaddr.Addr // last 256-byte line demanded from the L1I
	haveFetch    bool

	// prefetchFill records when a prefetched line's data actually
	// arrives, so early prefetches fully hide the miss and late ones
	// hide it partially.
	prefetchFill map[zaddr.Addr]predictor.Ticks

	prevTakenBranch zaddr.Addr // for the single-branch-loop rate
	havePrevTaken   bool
	lastNTRow       zaddr.Addr // row of the last not-taken prediction
	lastNTValid     bool

	seen addrSet // ever-executed branches (compulsory class)

	res Result

	// reg enumerates every metric of the engine's structures; it is
	// built once in New and reads them in place across runs. snapSeq
	// numbers interval snapshots, nextSnap is the instruction count that
	// triggers the next one.
	reg      *obs.Registry
	snapSeq  int64
	nextSnap int64
	// nextCkpt is the instruction count that triggers the next interval
	// checkpoint (0 = checkpointing off).
	nextCkpt int64

	// spans is Params.Spans hoisted onto the engine for the batched
	// path. bulkRecords/slowRecords attribute batched records to the
	// bulk fast path vs the per-record step — plain fields, deliberately
	// outside Result and the registry so the differential gate's
	// bit-identical comparison is unaffected; they surface only through
	// batch span arguments and BatchPathCounts.
	spans       *span.Recorder
	bulkRecords int64
	slowRecords int64

	// batch is RunBatched's record buffer, reused by every run.
	batch trace.Batch

	// Warmup snapshot, subtracted from the result when the trace is long
	// enough to cross the warmup boundary.
	warmTaken      bool
	warmCycles     predictor.Ticks
	warmOutcomes   stats.Counts
	warmMispredict float64
	warmSurprise   float64
	warmICache     float64
}

// New builds an engine and every structure it runs: the hierarchy, the
// instruction caches, the miss detector and the metric registry. Runs
// reset them in place; invalid parameters or config panic.
func New(hcfg core.Config, params Params) *Engine {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	e := &Engine{params: params, hcfg: hcfg, spans: params.Spans}
	e.hier = core.New(hcfg, params.Fault)
	if params.EventTracer != nil {
		e.hier.SetTracer(params.EventTracer)
	}
	if params.SnapshotInterval > 0 {
		e.hier.EnableDetailMetrics()
	}
	e.l1i = cache.New(cache.L1IConfig)
	if params.FiniteL2 {
		e.l2i = cache.New(cache.L2IConfig)
	}
	e.missDet = predictor.NewMissDetector(hcfg.Miss)
	e.prefetchFill = make(map[zaddr.Addr]predictor.Ticks)
	e.batch = trace.NewBatch(trace.DefaultBatchCapacity)
	e.buildRegistry()
	return e
}

// reset returns the engine to power-on state for a new run.
func (e *Engine) reset() {
	e.hier.Reset()
	e.l1i.Reset()
	if e.l2i != nil {
		e.l2i.Reset()
	}
	e.missDet.Reset()
	clear(e.prefetchFill)
	e.clock = 0
	e.bpClock = 0
	e.haveSearch = false
	e.haveFetch = false
	e.havePrevTaken = false
	e.lastNTValid = false
	e.seen.reset()
	e.res = Result{}
	e.warmTaken = false
	e.warmCycles = 0
	e.warmOutcomes = stats.Counts{}
	e.warmMispredict = 0
	e.warmSurprise = 0
	e.warmICache = 0

	e.snapSeq = 0
	e.nextSnap = e.params.SnapshotInterval
	e.nextCkpt = e.params.CheckpointInterval
	e.bulkRecords = 0
	e.slowRecords = 0
}

// buildRegistry enumerates every metric of the engine's structures: the
// hierarchy with all its structures, both instruction caches, and the
// engine's own instruction/cycle/outcome/penalty accounting.
func (e *Engine) buildRegistry() {
	r := obs.NewRegistry()
	e.hier.RegisterMetrics(r)
	e.l1i.RegisterMetrics(r, "l1i_")
	if e.l2i != nil {
		e.l2i.RegisterMetrics(r, "l2i_")
	}
	r.CounterFunc("engine_instructions_total", "instructions", "committed instructions",
		func() int64 { return e.res.Instructions })
	r.GaugeFunc("engine_cycles", "cycles", "decode/completion clock position",
		func() int64 { return int64(e.clock.ToCycles()) })
	r.GaugeFunc("engine_bp_cycles", "cycles", "search pipeline clock position",
		func() int64 { return int64(e.bpClock.ToCycles()) })
	r.CounterFunc("engine_misses_reported_total", "events", "BTB1 misses flagged by the miss detector",
		func() int64 { return e.missDet.Reported() })
	r.CounterFunc("engine_mispredict_cycles_total", "cycles", "cycles charged to mispredict restarts",
		func() int64 { return int64(e.res.MispredictCycles) })
	r.CounterFunc("engine_surprise_cycles_total", "cycles", "cycles charged to surprise redirects",
		func() int64 { return int64(e.res.SurpriseCycles) })
	r.CounterFunc("engine_icache_cycles_total", "cycles", "cycles charged to I-cache misses",
		func() int64 { return int64(e.res.ICacheCycles) })
	for o := stats.Outcome(0); o < stats.NumOutcomes; o++ {
		o := o
		r.CounterFunc(o.MetricName(), "branches", "branches with outcome "+o.String(),
			func() int64 { return e.res.Outcomes.N[o] })
	}
	e.reg = r
}

// snapshot captures the registry, appends it to the result, and feeds
// the sink if one is configured.
func (e *Engine) snapshot() {
	e.snapSeq++
	s := e.reg.Snapshot(e.snapSeq)
	e.res.Snapshots = append(e.res.Snapshots, s)
	if e.params.SnapshotSink != nil {
		e.params.SnapshotSink(s)
	}
}

// Hierarchy exposes the predictor under test (diagnostics).
func (e *Engine) Hierarchy() *core.Hierarchy { return e.hier }

// BatchPathCounts reports how many records of the last RunBatched run
// took the bulk fast path vs the per-record slow path; the sum equals
// the raw record count before warmup subtraction. Both are zero after
// a run of the Run oracle.
func (e *Engine) BatchPathCounts() (bulk, slow int64) { return e.bulkRecords, e.slowRecords }

// Run is the serial record-at-a-time oracle; production runs use
// RunBatched through sim.RunUnits. It simulates src to completion under
// configName, one src.Next record per step, and returns the result. The
// engine state is reset first, so one Engine can run several traces
// sequentially (each from power-on state).
func (e *Engine) Run(src trace.Source, configName string) Result {
	e.reset()
	src.Reset()
	e.res.Trace = src.Name()
	e.res.Config = configName
	//zbp:bounded terminates when src.Next reports end-of-trace
	for {
		in, ok := src.Next()
		if !ok {
			break
		}
		e.step(in)
	}
	e.finishResult()
	return e.res
}

func (e *Engine) finishResult() {
	// Capture registry state before the warmup subtraction below mutates
	// e.res: registry counters are raw cumulative values, and the final
	// snapshot must stay comparable with the interval ones (and with
	// exported trace event counts).
	if e.params.SnapshotInterval > 0 {
		// Close the timeline with an end-of-run snapshot so the last
		// partial interval is observable too.
		e.snapshot()
	}
	final := e.reg.Snapshot(e.snapSeq + 1)
	final.FillKinds()
	e.res.Metrics = &final

	e.res.Cycles = e.clock.Float()
	if e.warmTaken {
		// Subtract the warmup region so reported CPI and outcome shares
		// reflect steady state.
		e.res.Instructions -= e.params.WarmupInstructions
		e.res.Cycles -= e.warmCycles.Float()
		for i := range e.res.Outcomes.N {
			e.res.Outcomes.N[i] -= e.warmOutcomes.N[i]
		}
		e.res.MispredictCycles -= e.warmMispredict
		e.res.SurpriseCycles -= e.warmSurprise
		e.res.ICacheCycles -= e.warmICache
	}
	e.res.Fault = e.hier.FaultStats()
}

// now returns the current cycle for component timing.
func (e *Engine) now() uint64 { return e.clock.ToCycles() }

// step processes one committed instruction.
func (e *Engine) step(in trace.Inst) {
	// Checkpoint before touching this instruction: the captured state is
	// "exactly Instructions records fully processed", so a resume can skip
	// that many records and continue with this one.
	if e.nextCkpt > 0 && e.res.Instructions >= e.nextCkpt {
		e.params.CheckpointSink(e.Checkpoint())
		e.nextCkpt += e.params.CheckpointInterval
	}
	if !e.warmTaken && e.params.WarmupInstructions > 0 &&
		e.res.Instructions == e.params.WarmupInstructions {
		e.warmTaken = true
		e.warmCycles = e.clock
		e.warmOutcomes = e.res.Outcomes
		e.warmMispredict = e.res.MispredictCycles
		e.warmSurprise = e.res.SurpriseCycles
		e.warmICache = e.res.ICacheCycles
	}
	e.res.Instructions++
	if e.nextSnap > 0 && e.res.Instructions >= e.nextSnap {
		e.snapshot()
		e.nextSnap += e.params.SnapshotInterval
	}
	e.clock += DispatchTicks
	e.fetch(in.Addr)
	e.advanceSearch(in.Addr)
	e.hier.ObserveComplete(in.Addr)

	if in.Kind == trace.PreloadHint {
		// A branch preload instruction: software installs the named
		// branch through the BTBP write port.
		e.hier.PreloadBranch(in.HintBranch, in.Target, 4, e.now())
		return
	}
	if !in.IsBranch() {
		return
	}
	e.branch(in)
}

// fetch models the demand instruction fetch for addr, charging I-cache
// miss penalties and reporting misses to the BTB2 trackers.
func (e *Engine) fetch(addr zaddr.Addr) {
	line := zaddr.Align(addr, uint64(cache.L1IConfig.LineBytes))
	if e.haveFetch && line == e.curFetchLine {
		return
	}
	e.curFetchLine = line
	e.haveFetch = true
	hit, prefetched := e.l1i.Access(line)
	switch {
	case hit && prefetched:
		// The lookahead predictor prefetched this line; the demand fetch
		// pays only the part of the latency the prefetch lead did not
		// cover.
		if fill, ok := e.prefetchFill[line]; ok {
			if fill > e.clock {
				e.charge(&e.res.ICacheCycles, fill-e.clock)
			}
			delete(e.prefetchFill, line)
		}
	case hit:
	default:
		penalty := L1IMissPenalty
		if e.l2i != nil {
			if l2hit, _ := e.l2i.Access(line); !l2hit {
				penalty += L2IMissPenalty
			}
		}
		e.charge(&e.res.ICacheCycles, predictor.Cycles(penalty))
		e.hier.ReportICacheMiss(addr, e.now())
	}
}

// charge adds a penalty to the clock and attributes it.
func (e *Engine) charge(bucket *float64, t predictor.Ticks) {
	e.clock += t
	*bucket += t.Float()
}

// leadRows is how many rows ahead of the committed decode position the
// lookahead search may run — the asynchronous search pipeline's headroom.
const leadRows = 8

// advanceSearch walks the search pipeline forward along the committed
// path up to the row containing addr, then runs ahead of decode through
// empty rows (the asynchronous lookahead), feeding the miss detector.
func (e *Engine) advanceSearch(addr zaddr.Addr) {
	target := zaddr.RowBase(addr)
	if !e.haveSearch {
		e.haveSearch = true
		e.searchLine = target
		e.searchOffset = zaddr.RowOffset(addr)
	}
	if e.searchLine <= target {
		e.searchBlocked = false
	}
	// Bound work: a huge sequential gap (possible with synthetic traces)
	// is capped; the miss detector saturates long before.
	const maxRows = 64
	if e.searchLine < target {
		if rows := int((target - e.searchLine) / zaddr.RowBytes); rows > maxRows {
			e.searchLine = target - maxRows*zaddr.RowBytes
			e.searchOffset = 0
		}
	}
	// Catch up to the committed position.
	for e.searchLine <= target {
		e.searchRow()
	}
	// Lookahead: search ahead of decode through predictionless rows. A
	// row with first-level content stops lookahead (the pipeline would
	// predict there and re-index).
	for !e.searchBlocked && e.searchLine < target+leadRows*zaddr.RowBytes {
		if !e.searchRow() {
			break
		}
	}
}

// searchRow performs one row search at the current search position and
// reports whether the row was empty (lookahead may continue).
func (e *Engine) searchRow() bool {
	probe := e.searchLine + zaddr.Addr(e.searchOffset)
	found := e.hier.SearchLine(probe, e.now())
	if !found {
		// Empty rows cost the sequential search rate. A row with content
		// is *not* charged here: the Table 1 prediction cost charged when
		// its branch is processed covers that row's full pipeline pass.
		e.bpClock += predictor.DefaultThroughput.SeqSearchPerRow
	}
	if e.hcfg.MissMode.Speculative() {
		if anchor, miss := e.missDet.ObserveSearch(probe, found); miss {
			e.hier.ReportBTB1Miss(anchor, e.now())
		}
	}
	if found && e.searchLine > zaddr.RowBase(probe) {
		// Defensive: cannot happen (probe derives from searchLine).
		return false
	}
	e.searchLine += zaddr.RowBytes
	e.searchOffset = 0
	if found {
		e.searchBlocked = true
		return false
	}
	return true
}

// branch handles a committed branch instruction.
func (e *Engine) branch(in trace.Inst) {
	now := e.now()
	firstSeen := e.seen.add(in.Addr)

	p, hit := e.hier.Predict(in.Addr, now)

	// Clamp the predictor's lead/lag window.
	if maxLead := predictor.Cycles(MaxLeadCycles); e.bpClock < e.clock-maxLead {
		e.bpClock = e.clock - maxLead
	}

	if hit {
		// Charge the Table 1 prediction cost before testing timeliness:
		// the prediction broadcasts at bpClock after its pipeline pass.
		cost := e.predictionCost(in, &p)
		e.bpClock += cost
		onTime := e.bpClock <= e.clock+predictor.Cycles(PredictionSlack)
		if onTime {
			e.predicted(in, &p)
		} else {
			// Prediction fell behind decode: a latency surprise. The
			// hierarchy still trains from the resolved outcome.
			e.surprise(in, stats.BadSurpriseLatency)
			e.hier.Resolve(in, &p, now)
		}
		return
	}

	// Whole first level missed. In decode-surprise miss mode, an
	// encountered surprise branch that is statically guessed taken is
	// itself the (precise) BTB1-miss report and earns a full search.
	if e.hcfg.MissMode.DecodeSurprise() && e.hier.SurpriseGuess(in) {
		// I-cache-miss validity first so the tracker is fully active
		// when the BTB1 miss lands and launches a full (not partial)
		// search directly.
		e.hier.ReportICacheMiss(in.Addr, now)
		e.hier.ReportBTB1Miss(in.Addr, now)
	}
	// The branch's row was already searched (and, in speculative mode,
	// fed into the miss detector) by advanceSearch; classify the
	// surprise.
	switch {
	case e.hier.PendingSurpriseFor(in.Addr):
		e.surprise(in, stats.BadSurpriseLatency)
	case firstSeen:
		e.surprise(in, stats.BadSurpriseCompulsory)
	default:
		e.surprise(in, stats.BadSurpriseCapacity)
	}
	e.hier.Resolve(in, nil, e.now())
}

// predictionCost classifies the Table 1 case for an on-path prediction.
func (e *Engine) predictionCost(in trace.Inst, p *core.Prediction) predictor.Ticks {
	if p.Taken {
		loop := e.havePrevTaken && e.prevTakenBranch == in.Addr
		fit := e.hier.FITLookup(in.Addr, p.Target)
		c := predictor.ClassifyTaken(loop, fit, p.MRU)
		return predictor.DefaultThroughput.Cost(c)
	}
	paired := e.lastNTValid && e.lastNTRow == zaddr.RowBase(in.Addr)
	c := predictor.ClassifyNotTaken(paired)
	return predictor.DefaultThroughput.Cost(c)
}

// predicted handles a timely dynamic prediction.
func (e *Engine) predicted(in trace.Inst, p *core.Prediction) {
	now := e.now()
	dirRight := p.Taken == in.Taken
	tgtRight := !in.Taken || !p.Taken || p.Target == in.Target

	switch {
	case dirRight && tgtRight:
		e.res.Outcomes.Add(stats.GoodPredicted)
		if in.Taken {
			// The lookahead predictor steers fetch to the target and
			// prefetches its line ahead of decode.
			e.prefetchTarget(in.Target)
			e.redirectSearch(in.Target)
			e.prevTakenBranch = in.Addr
			e.havePrevTaken = true
			e.lastNTValid = false
		} else {
			e.lastNTRow = zaddr.RowBase(in.Addr)
			e.lastNTValid = true
		}
	case !dirRight:
		e.res.Outcomes.Add(stats.BadWrongDir)
		e.wrongPath(in, p)
		e.charge(&e.res.MispredictCycles, predictor.Cycles(MispredictPenalty))
		e.restart(in)
	default: // wrong target
		e.res.Outcomes.Add(stats.BadWrongTarget)
		e.wrongPath(in, p)
		e.charge(&e.res.MispredictCycles, predictor.Cycles(MispredictPenalty))
		e.restart(in)
	}
	e.hier.Resolve(in, p, now)
}

// surprise handles a branch the first level missed (or missed in time).
// class is the latency/compulsory/capacity classification to use if the
// outcome is bad.
func (e *Engine) surprise(in trace.Inst, class stats.Outcome) {
	guessTaken := e.hier.SurpriseGuess(in)
	switch {
	case !guessTaken && !in.Taken:
		// Quietly correct: fall-through continues, no penalty.
		e.res.Outcomes.Add(stats.GoodSurpriseNT)
	case guessTaken && in.Taken:
		// Guessed taken at decode: target computed from instruction
		// text, decode-time redirect penalty only.
		e.res.Outcomes.Add(class)
		e.charge(&e.res.SurpriseCycles, predictor.Cycles(SurpriseTakenPenalty))
		e.restart(in)
	default:
		// Wrong static guess either way: resolved at execute.
		e.res.Outcomes.Add(class)
		e.charge(&e.res.SurpriseCycles, predictor.Cycles(MispredictPenalty))
		e.restart(in)
	}
}

// prefetchTarget issues the lookahead prefetch for a predicted-taken
// target, recording when its data will arrive.
func (e *Engine) prefetchTarget(target zaddr.Addr) {
	line := zaddr.Align(target, uint64(cache.L1IConfig.LineBytes))
	if e.l1i.Probe(line) {
		return
	}
	e.l1i.Prefetch(line)
	// The prefetch is issued at the predictor's current position; the
	// line arrives a full miss latency later. Demand fetches pay only
	// the uncovered remainder.
	issue := max(e.bpClock, e.clock-predictor.Cycles(MaxLeadCycles))
	fill := issue + predictor.Cycles(L1IMissPenalty)
	if e.l2i != nil {
		if l2hit, _ := e.l2i.Access(line); !l2hit {
			fill += predictor.Cycles(L2IMissPenalty)
		}
	}
	e.prefetchFill[line] = fill
}

// redirectSearch points the search pipeline at a predicted-taken target.
func (e *Engine) redirectSearch(target zaddr.Addr) {
	e.searchLine = zaddr.RowBase(target)
	e.searchOffset = zaddr.RowOffset(target)
	e.searchBlocked = false
	e.missDet.Restart()
}

// wrongPath models the lookahead pipeline running down the mispredicted
// path during the restart window: it searches rows starting at the wrong
// continuation address, feeding the (speculative) miss detector and
// issuing wrong-path prefetches — pollution the paper's C++ model
// captures by simulating wrong-path execution. The path history is not
// advanced (Resolve repairs it with the correct outcome afterwards).
func (e *Engine) wrongPath(in trace.Inst, p *core.Prediction) {
	// The wrong continuation: where the (incorrect) prediction steered
	// fetch. Wrong direction taken->NT walks the fall-through; NT->taken
	// or wrong target walks the bogus target.
	wrong := in.FallThrough()
	if p.Taken {
		wrong = p.Target
	}
	now := e.now()
	// The pipeline has roughly the restart penalty's worth of cycles to
	// chase the wrong path at the sequential search rate, at most the
	// lookahead's headroom.
	rows := min(MispredictPenalty*predictor.TicksPerCycle/
		int(predictor.DefaultThroughput.SeqSearchPerRow), leadRows)
	line := zaddr.RowBase(wrong)
	offset := zaddr.RowOffset(wrong)
	e.missDet.Restart()
	for i := 0; i < rows; i++ {
		probe := line + zaddr.Addr(offset)
		found := e.hier.SearchLine(probe, now)
		if e.hcfg.MissMode.Speculative() {
			if anchor, miss := e.missDet.ObserveSearch(probe, found); miss {
				// A wrong-path speculative miss: pollutes the trackers.
				e.hier.ReportBTB1Miss(anchor, now)
			}
		}
		if found {
			// The wrong path would predict and redirect here; without
			// knowing the phantom outcome, stop the walk.
			break
		}
		line += zaddr.RowBytes
		offset = 0
	}
	// Wrong-path instruction fetches disturb the L1I like real ones.
	e.l1i.Prefetch(zaddr.Align(wrong, uint64(cache.L1IConfig.LineBytes)))
	e.missDet.Restart()
}

// restart re-synchronizes the search pipeline with decode after a
// misprediction or surprise redirect ("upon a restart condition ... both
// instruction fetching and branch prediction start at the same
// instruction address").
func (e *Engine) restart(in trace.Inst) {
	next := in.NextAddr()
	e.searchLine = zaddr.RowBase(next)
	e.searchOffset = zaddr.RowOffset(next)
	e.searchBlocked = false
	e.missDet.Restart()
	e.bpClock = e.clock
	e.havePrevTaken = false
	e.lastNTValid = false
}

// Run is the serial record-at-a-time oracle; production runs use
// RunBatched through sim.RunUnits. It builds an engine and runs one
// trace through (*Engine).Run.
func Run(src trace.Source, hcfg core.Config, params Params, configName string) Result {
	return New(hcfg, params).Run(src, configName)
}
