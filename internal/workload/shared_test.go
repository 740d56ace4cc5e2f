package workload

import (
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"bulkpreload/internal/trace"
)

// sharedUsers reports the live Source count of p's shared program, and
// whether the cache holds one.
func sharedUsers(p Profile) (int, bool) {
	programs.mu.Lock()
	defer programs.mu.Unlock()
	e := programs.byProfile[p]
	if e == nil {
		return 0, false
	}
	return e.users, true
}

// TestSharedConcurrentNew builds sources of equal and of different
// profiles from many goroutines at once; each must emit the stream of a
// source compiled alone, outside the cache.
func TestSharedConcurrentNew(t *testing.T) {
	var profs []Profile
	for _, p := range Table4Profiles(20_000)[:3] {
		profs = append(profs, p)
		p.PreloadHints = true
		profs = append(profs, p)
	}
	want := make([]string, len(profs))
	for i, p := range profs {
		want[i] = streamHash(newSource(buildProgram(p)), drainNext)
	}

	const perProfile = 3
	got := make([]string, perProfile*len(profs))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = streamHash(New(profs[i%len(profs)]), drainNext)
		}(i)
	}
	wg.Wait()
	for i, h := range got {
		p := profs[i%len(profs)]
		if h != want[i%len(profs)] {
			t.Errorf("%s (hints %v): shared stream %s, alone %s", p.Name, p.PreloadHints, h, want[i%len(profs)])
		}
	}
}

// TestSharedEntryDropped checks that equal profiles share one program
// and that the cache forgets it once every Source over it is
// unreachable.
func TestSharedEntryDropped(t *testing.T) {
	p := smallProfile()
	p.Name = "test-shared-drop"
	func() {
		a, b := New(p), New(p)
		if a.prog != b.prog {
			t.Error("equal profiles compiled twice")
		}
		other := p
		other.Seed++
		if c := New(other); c.prog == a.prog {
			t.Error("different profiles share a program")
		}
		if n, ok := sharedUsers(p); !ok || n != 2 {
			t.Errorf("shared users = %d (cached %v), want 2", n, ok)
		}
		runtime.KeepAlive(a)
		runtime.KeepAlive(b)
	}()
	// Finalizers run on their own goroutine after the collection that
	// finds the sources unreachable.
	for i := 0; i < 100; i++ {
		if _, ok := sharedUsers(p); !ok {
			return
		}
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	n, _ := sharedUsers(p)
	t.Fatalf("shared program still cached with %d users after its sources became unreachable", n)
}

// TestCompileAllocs pins the flat program layout: compiling a Table 4
// program allocates a handful of arrays, not one per function.
func TestCompileAllocs(t *testing.T) {
	for _, p := range Table4Profiles(1) {
		for _, hints := range []bool{false, true} {
			p.PreloadHints = hints
			if n := testing.AllocsPerRun(1, func() { buildProgram(p) }); n > 64 {
				t.Errorf("%s (hints %v): compile allocates %.0f times, want <= 64", p.Name, hints, n)
			}
		}
	}
}

// TestProgramFootprint pins the compact program layout: an op is at
// most 16 bytes, and two Table 4 programs compile to under half the
// bytes they took with 40-byte ops (3.37 MB for zos-lspr-cb84, 7.70 MB
// for zos-daytrader-dbserv, counting allocated capacity).
func TestProgramFootprint(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 16 {
		t.Errorf("op is %d bytes, want <= 16", n)
	}
	for _, c := range []struct {
		name   string
		wideMB float64
	}{{"zos-lspr-cb84", 3.37}, {"zos-daytrader-dbserv", 7.70}} {
		p, err := ByName(c.name, 1)
		if err != nil {
			t.Fatal(err)
		}
		prog := buildProgram(p)
		n := cap(prog.ops)*int(unsafe.Sizeof(op{})) +
			cap(prog.conds)*int(unsafe.Sizeof(cond{})) +
			cap(prog.targets)*int(unsafe.Sizeof(int32(0)))
		if mb := float64(n) / 1e6; mb >= c.wideMB/2 {
			t.Errorf("%s compiles to %.2f MB, want under %.2f MB", c.name, mb, c.wideMB/2)
		}
	}
}

// TestNextAllocs pins the steady-state interpreter at zero allocations,
// across Reset too.
func TestNextAllocs(t *testing.T) {
	p := smallProfile()
	p.PreloadHints = true
	s := New(p)
	if n := testing.AllocsPerRun(3*p.Instructions, func() {
		if _, ok := s.Next(); !ok {
			s.Reset()
		}
	}); n != 0 {
		t.Errorf("Next allocates %.3f times per record, want 0", n)
	}
}

// TestFillBatchAllocs pins the batch path at zero allocations per
// fill, across Reset too.
func TestFillBatchAllocs(t *testing.T) {
	p := smallProfile()
	p.PreloadHints = true
	s := New(p)
	b := trace.NewBatch(0)
	if n := testing.AllocsPerRun(3*p.Instructions/cap(b.Ins), func() {
		if s.FillBatch(&b) == 0 {
			s.Reset()
		}
	}); n != 0 {
		t.Errorf("FillBatch allocates %.3f times per batch, want 0", n)
	}
}
