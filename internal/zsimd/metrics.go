package zsimd

import (
	"fmt"
	"strings"
	"sync"

	"bulkpreload/internal/jobq"
	"bulkpreload/internal/obs"
)

// metrics is the service-level observability surface, published through
// the same obs registry/Live machinery the engine uses. Job-lifecycle
// series are not counted here: each scrape reads them from the queue's
// journal state in one call, so a scrape never contradicts a job poll;
// only what the journal does not hold is event-recorded. The obs layer
// is goroutine-local (see internal/obs), so every mutation and every
// Snapshot goes through one mutex; service metrics are scrape-rate, not
// hot-path.
type metrics struct {
	mu  sync.Mutex
	reg *obs.Registry
	q   *jobq.Queue
	// seq numbers registry snapshots.
	//
	//zbp:guardedby mu
	seq int64

	rejectedFull  obs.Counter
	rejectedRate  obs.Counter
	rejectedDrain obs.Counter

	resumes    obs.Counter
	checkpoint obs.Counter
	damage     obs.Counter

	instructions obs.Counter
	latency      obs.Histogram // job wall latency, milliseconds

	// cut is the journal state the scrape in progress serves, keyed by
	// sanitized tenant name (raw tenants that sanitize alike summed).
	//
	//zbp:guardedby mu
	cut map[string]jobq.Counts

	// rejected holds each sanitized tenant's admission-reject counter;
	// a key is present once the tenant's series are registered.
	//
	//zbp:guardedby mu
	rejected map[string]*obs.Counter
}

// lifecycle lists the series derived from journal state, each served
// service-wide as svc_jobs_<name>_total and per tenant as
// svc_tenant_<tenant>_<name>_total.
var lifecycle = []struct {
	name, unit, help string
	read             func(jobq.Counts) int
}{
	{"admitted", "jobs", "jobs accepted into the queue", func(c jobq.Counts) int { return c.Admitted }},
	{"done", "jobs", "jobs completed successfully", func(c jobq.Counts) int { return c.Done }},
	{"retried", "attempts", "failed attempts sent back with backoff", func(c jobq.Counts) int { return c.Retried }},
	{"dead", "jobs", "jobs dead-lettered after max attempts", func(c jobq.Counts) int { return c.Dead }},
	{"released", "jobs", "in-flight jobs checkpointed and released by drain", func(c jobq.Counts) int { return c.Released }},
	{"recovered", "jobs", "crash recoveries that requeued a running job", func(c jobq.Counts) int { return c.Recovered }},
}

func newMetrics(q *jobq.Queue, damaged bool) *metrics {
	m := &metrics{reg: obs.NewRegistry(), q: q, rejected: make(map[string]*obs.Counter)}
	r := m.reg
	for _, s := range lifecycle {
		r.CounterFunc("svc_jobs_"+s.name+"_total", s.unit, s.help, func() int64 { return m.value("", s.read) })
	}
	r.Counter("svc_admission_rejected_full_total", "jobs", "submissions shed: pending backlog at bound", &m.rejectedFull)
	r.Counter("svc_admission_rejected_rate_total", "jobs", "submissions shed: tenant token bucket empty", &m.rejectedRate)
	r.Counter("svc_admission_rejected_draining_total", "jobs", "submissions refused during shutdown drain", &m.rejectedDrain)
	r.Counter("svc_resumes_total", "jobs", "attempts that resumed from a durable checkpoint", &m.resumes)
	r.Counter("svc_checkpoints_total", "events", "durable job checkpoints written", &m.checkpoint)
	r.Counter("svc_journal_damage_total", "events", "startups that salvaged a damaged journal", &m.damage)
	r.Counter("svc_instructions_total", "instructions", "instructions simulated across completed jobs", &m.instructions)
	m.latency.SetBounds(10, 50, 100, 500, 1_000, 5_000, 30_000, 120_000)
	r.Histogram("svc_job_latency_ms", "milliseconds", "completed-job wall latency", &m.latency)
	r.GaugeFunc("svc_queue_pending", "jobs", "jobs waiting for a worker",
		func() int64 { return m.value("", func(c jobq.Counts) int { return c.Pending }) })
	r.GaugeFunc("svc_queue_running", "jobs", "jobs marked running in the journal",
		func() int64 { return m.value("", func(c jobq.Counts) int { return c.Running }) })
	r.GaugeFunc("svc_queue_dead", "jobs", "dead-lettered jobs held for inspection",
		func() int64 { return m.value("", func(c jobq.Counts) int { return c.Dead }) })
	if damaged {
		m.damage.Inc()
	}
	return m
}

// value reads one series from the scrape's cut: one sanitized tenant,
// or summed over all of them for "". The registry's computed series
// call it from inside snapshot, which holds mu.
//
//zbp:caller-holds mu
func (m *metrics) value(tenant string, read func(jobq.Counts) int) int64 {
	if tenant != "" {
		return int64(read(m.cut[tenant]))
	}
	n := 0
	for _, c := range m.cut {
		n += read(c)
	}
	return int64(n)
}

// tenant returns the sanitized tenant's reject counter, registering the
// tenant's series on first use.
//
//zbp:caller-holds mu
func (m *metrics) tenant(name string) *obs.Counter {
	c, ok := m.rejected[name]
	if !ok {
		c = &obs.Counter{}
		m.rejected[name] = c
		p := "svc_tenant_" + name + "_"
		m.reg.Counter(p+"rejected_total", "jobs", "submissions shed for tenant "+name, c)
		for _, s := range lifecycle {
			m.reg.CounterFunc(p+s.name+"_total", s.unit, s.help+" for tenant "+name, func() int64 { return m.value(name, s.read) })
		}
	}
	return c
}

// sanitizeTenant maps an arbitrary tenant string into the metric-name
// alphabet; distinct tenants that sanitize alike share one series set,
// summed over them (acceptable: tenant names are operator-chosen).
func sanitizeTenant(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9':
			b.WriteRune(r)
		case r >= 'A' && r <= 'Z':
			b.WriteRune(r + ('a' - 'A'))
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "anon"
	}
	return b.String()
}

// reject reasons for jobRejected.
const (
	rejectFull     = "full"
	rejectRate     = "rate"
	rejectDraining = "draining"
)

func (m *metrics) jobRejected(tenant, reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	switch reason {
	case rejectFull:
		m.rejectedFull.Inc()
	case rejectRate:
		m.rejectedRate.Inc()
	case rejectDraining:
		m.rejectedDrain.Inc()
	}
	m.tenant(sanitizeTenant(tenant)).Inc()
}

// jobDone records what a completed job leaves outside the journal. It
// runs after the Done commit, so these series can trail
// svc_jobs_done_total by up to the number of jobs in flight.
func (m *metrics) jobDone(instructions, latencyMillis int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.instructions.Add(instructions)
	m.latency.Observe(latencyMillis)
}

func (m *metrics) checkpointWritten() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.checkpoint.Inc()
}

func (m *metrics) resumed() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.resumes.Inc()
}

// snapshot reads the queue's per-tenant counts once, the consistent cut
// every lifecycle series in this scrape serves, registers the series of
// tenants not seen before (including ones replayed from the journal),
// and captures the registry. Lock order: metrics.mu, then queue.mu
// inside TenantCounts, as on every other path.
func (m *metrics) snapshot() obs.Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut = m.q.TenantCounts(sanitizeTenant)
	for name := range m.cut {
		m.tenant(name)
	}
	m.seq++
	return m.reg.Snapshot(m.seq)
}

// counterValue reads one counter by name (test hook).
func (m *metrics) counterValue(name string) (int64, error) {
	s := m.snapshot()
	for _, v := range s.Values {
		if v.Name == name {
			return v.Value, nil
		}
	}
	return 0, fmt.Errorf("zsimd: no metric %q", name)
}
