package predictor

// Stage describes one cycle of the first-level branch prediction search
// pipeline — the rows of the paper's Table 1. The pipeline is 7 stages
// deep (b0..b6); re-indexing for the next search can begin before the
// current one completes, which is where the variable throughput of
// Throughput comes from.
type Stage struct {
	Name string
	// Search is the stage's role in the search process.
	Search string
	// ReindexPrediction is the stage's role in re-indexing for a
	// predicted branch, when applicable.
	ReindexPrediction string
	// ReindexSequential notes when a sequential next search can issue
	// its own b0 in this cycle.
	ReindexSequential string
}

// PipelineStages returns the Table 1 stage descriptions verbatim from
// the paper. The timing model consumes the derived Throughput rates;
// this table is the authoritative reference they were derived from
// (cmd/experiments -only table1 prints it).
func PipelineStages() []Stage {
	return []Stage{
		{
			Name:              "b0",
			Search:            "index arrays with search address x",
			ReindexSequential: "",
		},
		{
			Name:              "b1",
			Search:            "access arrays",
			ReindexSequential: "b0 (x+1)",
		},
		{
			Name:              "b2",
			Search:            "start hit detection",
			ReindexPrediction: "if under FIT control, re-index (b0) with FIT-supplied index for expected branch prediction",
			ReindexSequential: "b0 (x+2)",
		},
		{
			Name:              "b3",
			Search:            "finish hit detection; select prediction information",
			ReindexPrediction: "if not under FIT control, re-index (b0) assuming taken prediction from MRU column",
		},
		{
			Name:              "b4",
			Search:            "broadcast prediction info for taken prediction from MRU column",
			ReindexPrediction: "if necessary, re-index (b0) for not-taken prediction or taken prediction not from MRU column",
		},
		{
			Name:              "b5",
			Search:            "broadcast prediction info for 1st not-taken prediction or taken prediction not from MRU column",
			ReindexPrediction: "if necessary, re-index (b0) for second not-taken prediction",
		},
		{
			Name:              "b6",
			Search:            "broadcast branch prediction info for 2nd not-taken prediction",
			ReindexSequential: "b0",
		},
	}
}

// MissDetectCycle is the pipeline stage at which a BTB1 miss is known
// ("the miss is detected in the b3 cycle of the search process"); the
// BTB2 search can start tracker.StartDelay cycles later (b10 at the earliest).
const MissDetectCycle = 3
