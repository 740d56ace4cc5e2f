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

// The placements packlayout reads: a constant declaration's doc
// comment for declarations, a function's doc comment for either form.
// Accepted (whether the spec resolves is packlayout's own business).
//
//zbp:layout header word:16 kind:0..3 seq:4..15
const headerBits = 16

//zbp:layout header pack
func packHeader(kind, seq uint16) uint16 { return kind&0xF | seq<<4 }

//zbp:layout header word:16 kind:0..3 seq:4..15 // want `stray //zbp:layout: only a constant declaration's or function's doc comment is read \(by packlayout\); this placement is consumed by no analyzer`
var strayLayout int

// Malformed specs are this analyzer's diagnostics, reported even
// though packlayout skips the broken declarations.
//
//zbp:layout noword kind:0..3 // want `malformed //zbp:layout: declaration is missing its word:<width>`
//zbp:layout nofields word:16 // want `malformed //zbp:layout: declaration has no fields`
//zbp:layout nobounds word:16 ok:0..3 kind // want `malformed //zbp:layout: field spec "kind" has no ':<lo>\[\.\.<hi>\]' bounds`
//zbp:layout badunit word:16 unit:nibble kind:0..3 // want `malformed //zbp:layout: unknown unit "nibble": want bit or byte`
//zbp:layout mixed word:16 pack kind:0..3 // want `malformed //zbp:layout: mixes a layout declaration with a pack/unpack role; use separate //zbp:layout lines`
//zbp:layout badcount word:64 ok:0..15 lane[0]:16..31 // want `malformed //zbp:layout: field spec "lane\[0\]:16\.\.31" has a bad \[count\] "0" \(want a positive integer\)`
//zbp:layout dup word:16 kind:0..3 kind:4..7 // want `//zbp:layout dup declares field "kind" twice; rename or delete one`
//zbp:layout // want `malformed //zbp:layout: missing layout name: want //zbp:layout <name> word:<w> <field>:<lo>\[\.\.<hi>\] \.\.\. or //zbp:layout <name> pack\|unpack\|uses`
const _ = 0
