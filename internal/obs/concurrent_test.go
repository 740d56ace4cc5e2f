package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentSnapshotExport drives the ownership model the whole
// observability plane rests on — a single writer goroutine mutating its
// plain-int64 registry and publishing immutable snapshots through Live,
// while reader goroutines concurrently snapshot, export, and diff —
// and checks, under the race detector, that every published snapshot is
// internally consistent no matter when it is read.
//
// The writer maintains the invariant counter == gauge == histogram
// count at every publish point, so any reader observing a mix of two
// publishes (or a snapshot aliasing live registry memory) fails the
// consistency check even without -race.
func TestConcurrentSnapshotExport(t *testing.T) {
	const (
		iters   = 20_000
		every   = 64 // publish cadence in iterations
		readers = 4
	)
	var live Live

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		reg := NewRegistry()
		var c Counter
		var level int64
		var h Histogram
		reg.Counter("work_total", "ops", "work items", &c)
		reg.GaugeFunc("level", "ops", "current level", func() int64 { return level })
		reg.Histogram("size", "ops", "work size", &h)
		h.SetBounds(1, 10, 100, 1000)
		seq := int64(0)
		for i := 1; i <= iters; i++ {
			c.Inc()
			level = int64(i)
			h.Observe(int64(i % 500))
			if i%every == 0 {
				seq++
				live.Publish(reg.Snapshot(seq))
			}
		}
		seq++
		live.Publish(reg.Snapshot(seq))
	}()

	check := func(s *Snapshot) {
		c := s.Counter("work_total")
		gv, ok := s.Get("level")
		if !ok {
			t.Error("published snapshot missing gauge 'level'")
			return
		}
		hv, ok := s.Get("size")
		if !ok {
			t.Error("published snapshot missing histogram 'size'")
			return
		}
		if c != gv.Value || c != hv.Count {
			t.Errorf("torn snapshot: counter %d, gauge %d, histogram count %d", c, gv.Value, hv.Count)
		}
	}

	var rg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		rg.Add(1)
		go func(id int) {
			defer rg.Done()
			var lastSeq int64
			var prev *Snapshot
			for {
				select {
				case <-done:
					return
				default:
				}
				s := live.Load()
				if s == nil {
					continue
				}
				if s.Seq < lastSeq {
					t.Errorf("reader %d: snapshot sequence went backwards: %d after %d", id, s.Seq, lastSeq)
					return
				}
				lastSeq = s.Seq
				check(s)
				switch id % 3 {
				case 0: // Prometheus text export
					var buf bytes.Buffer
					if err := s.WritePrometheus(&buf); err != nil {
						t.Errorf("reader %d: prometheus export: %v", id, err)
						return
					}
					if !strings.Contains(buf.String(), "work_total") {
						t.Errorf("reader %d: export lost the counter", id)
						return
					}
				case 1: // JSON export (the /snapshot endpoint's encoding)
					if _, err := json.Marshal(s); err != nil {
						t.Errorf("reader %d: json export: %v", id, err)
						return
					}
				case 2: // interval delta (the phase-timeline computation)
					if prev != nil && prev.Seq <= s.Seq {
						d := s.Delta(prev)
						if got := d.Counter("work_total"); got < 0 {
							t.Errorf("reader %d: negative counter delta %d across publishes", id, got)
							return
						}
					}
					cp := *s
					prev = &cp
				}
			}
		}(r)
	}

	wg.Wait()
	close(done)
	rg.Wait()

	// The final published snapshot must reconcile exactly with what the
	// writer did: iters increments, last gauge level, iters observations.
	final := live.Load()
	if final == nil {
		t.Fatal("no snapshot published")
	}
	if got := final.Counter("work_total"); got != iters {
		t.Errorf("final counter = %d, want %d", got, iters)
	}
	if gv, _ := final.Get("level"); gv.Value != iters {
		t.Errorf("final gauge = %d, want %d", gv.Value, iters)
	}
	if hv, _ := final.Get("size"); hv.Count != iters {
		t.Errorf("final histogram count = %d, want %d", hv.Count, iters)
	}
}
