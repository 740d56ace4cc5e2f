// Package directives exercises the staledirective analyzer: //zbp:
// annotations that no analyzer in the suite would consume — unknown
// kinds, allows naming unknown or out-of-scope analyzers, placements no
// consumer reads — are flagged here, in a package outside the scoped
// analyzers' reach.
package directives

//zbp:typo should be rejected // want `unknown //zbp: directive "typo"`

//zbp:allow nosuch totally convincing reason // want `names unknown analyzer "nosuch"`

//zbp:allow determinism keys are sorted upstream // want `which the determinism analyzer never checks`

//zbp:allow erring best-effort cleanup // want `which the erring analyzer never checks`

//zbp:wallclock progress logging only // want `//zbp:wallclock in package directives`

//zbp:bounded terminates at trace EOF // want `//zbp:bounded in package directives`

// scratch carries an in-scope allow: lockorder checks every package,
// so the suppression is live and accepted here.
//
//zbp:allow lockorder scratch is filled before any goroutine starts
var scratch [64]byte

// Retired kinds fail even in the placement their analyzers used to
// read, so a directive carried over from an old branch is not silently
// ignored.
//
//zbp:hotpath // want `retired //zbp:hotpath: the hotalloc analyzer is gone; allocation-free paths are pinned by testing.AllocsPerRun tests`
//zbp:inert // want `retired //zbp:inert: the inertpath analyzer is gone; engine.TestBulkWindowMatchesPredicate pins bulkWindow's inertness`
func fast() int { return len(scratch) }

//zbp:allow hotalloc scratch buffer reused across calls // want `names unknown analyzer "hotalloc"`
var spins int

//zbp:durable // want `stray //zbp:durable`
var journal int

//zbp:caller-holds mu // want `stray //zbp:caller-holds`
var held int

//zbp:guardedby mu // want `stray //zbp:guardedby`
var loose int

// guardedHome shows the one placement //zbp:guardedby is read from: a
// struct field's comment. Accepted (whether the named mutex exists is
// lockorder's own business, not staledirective's).
type guardedHome struct {
	n int //zbp:guardedby mu
}

// persist carries the function-doc placements the durability and
// locking analyzers read. Accepted.
//
//zbp:durable
//zbp:caller-holds mu
//zbp:locked the doc form sanctions the whole body
func persist(g *guardedHome) int {
	//zbp:locked the line form is consumed by lockorder wherever it appears
	return g.n
}

//zbp:allow staledirective stale escape hatch // want `unused //zbp:allow staledirective`

//zbp:allow staledirective the next directive is kept for the changelog
//zbp:legacy retired kind, suppressed by the allow above
func quiet() {}

// A leftover //zbp:layout line, the grammar of the retired packlayout
// analyzer, is an unknown directive.
//
//zbp:layout header word:16 kind:0..3 seq:4..15 // want `unknown //zbp: directive "layout"`
const headerBits = 16
