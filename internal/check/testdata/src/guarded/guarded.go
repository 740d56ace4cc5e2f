// Package guarded exercises lockorder's guarded-field rules: accesses
// with and without the mutex, the //zbp:caller-holds contract and its
// validation, annotation validation (a name that is not a mutex), the
// constructor //zbp:allow idiom, and unlock-on-all-paths over the
// manual early-unlock ladder.
package guarded

import "sync"

type box struct {
	mu sync.Mutex
	// n is the guarded payload.
	//
	//zbp:guardedby mu
	n int
}

func (b *box) bump() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++ // fine: mu is held
}

func (b *box) peek() int {
	return b.n // want `peek accesses box\.n without holding guarded\.box\.mu \(//zbp:guardedby mu\); lock it here or annotate the function //zbp:caller-holds mu`
}

// peekLocked runs under the caller's lock per its contract.
//
//zbp:caller-holds mu
func (b *box) peekLocked() int {
	return b.n // fine: the caller holds mu
}

func (b *box) viaContract() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peekLocked()
}

// newBox writes the guarded field before the value is shared; the
// allow records why that is safe.
func newBox() *box {
	b := &box{}
	//zbp:allow lockorder constructor write before the value escapes
	b.n = 1
	return b
}

// ladder is the manual early-unlock-and-return shape the defer idiom
// cannot express; every path releases, so nothing is reported.
func (b *box) ladder(fast bool) int {
	b.mu.Lock()
	if fast {
		v := b.n
		b.mu.Unlock()
		return v
	}
	b.n++
	v := b.n
	b.mu.Unlock()
	return v
}

// leaky forgets the early path's unlock.
func (b *box) leaky(fast bool) int {
	b.mu.Lock()
	if fast {
		return 0 // want `leaky can exit with guarded\.box\.mu still held \(locked at line \d+\); unlock on every path or defer the unlock`
	}
	v := b.n
	b.mu.Unlock()
	return v
}

//zbp:caller-holds
func (b *box) bareHolds() int { // want `malformed //zbp:caller-holds on bareHolds: want //zbp:caller-holds <mutex>`
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

//zbp:caller-holds nosuch
func (b *box) badHolds() int { // want `//zbp:caller-holds on badHolds names "nosuch", which is neither a sync mutex field of the receiver nor a package-level sync var`
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

type badbox struct {
	mu sync.Mutex
	n  int //zbp:guardedby lock // want `//zbp:guardedby names "lock", which is not a sync mutex field of badbox`
}

// counter embeds its mutex in an unnamed struct: Lock and Unlock are
// promoted, and the lock is keyed by the variable, so the deferred
// unlock on the next line releases the same lock.
var counter struct {
	sync.Mutex
	n int
}

func bumpCounter() {
	counter.Lock()
	defer counter.Unlock()
	counter.n++
}

func leakyCounter(fast bool) {
	counter.Lock()
	if fast {
		return // want `leakyCounter can exit with guarded\.counter\.Mutex still held \(locked at line \d+\); unlock on every path or defer the unlock`
	}
	counter.Unlock()
}

func localCounter() int {
	var c struct {
		sync.Mutex
		n int
	}
	c.Lock()
	defer c.Unlock()
	c.n++
	return c.n
}

type holder struct {
	st struct {
		sync.Mutex
		n int
	}
}

func (h *holder) bump() {
	h.st.Lock()
	defer h.st.Unlock()
	h.st.n++
}
