package zsimd

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"bulkpreload/internal/jobq"
	"bulkpreload/internal/obs/obstest"
)

func postJob(t *testing.T, url, tenant string, spec json.RawMessage) *http.Response {
	t.Helper()
	body := fmt.Sprintf(`{"tenant":%q,"spec":%s}`, tenant, spec)
	resp, err := http.Post(url+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decodeInto(t *testing.T, resp *http.Response, v any) {
	t.Helper()
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

func getJob(t *testing.T, url, id string) jobq.Job {
	t.Helper()
	r, err := http.Get(url + "/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	var j jobq.Job
	decodeInto(t, r, &j)
	return j
}

// scrape fetches /metrics and returns every sample by series name.
func scrape(t *testing.T, url string) map[string]int64 {
	t.Helper()
	r, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, line := range strings.Split(string(text), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		out[f[0]] = v
	}
	return out
}

// TestHTTPSubmitPollScrape walks the primary client path: submit a
// job, poll its status to completion, and scrape the metrics surface.
func TestHTTPSubmitPollScrape(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, CheckpointInterval: -1})
	s.Start()
	defer shutdownNow(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp := postJob(t, ts.URL, "acme", testSpec(200_000))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	var job jobq.Job
	decodeInto(t, resp, &job)
	if job.ID == "" {
		t.Fatal("submit returned no job ID")
	}

	waitFor(t, 30*time.Second, "job done via HTTP", func() bool {
		j := getJob(t, ts.URL, job.ID)
		return j.State == jobq.StateDone && len(j.Result) > 0
	})

	var listing struct {
		Depth jobq.Depth `json:"depth"`
		Jobs  []jobq.Job `json:"jobs"`
	}
	r, err := http.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	decodeInto(t, r, &listing)
	if listing.Depth.Done != 1 || len(listing.Jobs) != 1 {
		t.Fatalf("listing = %+v, want one done job", listing)
	}

	r, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(r.Body)
	r.Body.Close()
	for _, want := range []string{"svc_jobs_done_total 1", "svc_tenant_acme_admitted_total 1", "svc_job_latency_ms", "svc_queue_pending 0"} {
		if !bytes.Contains(text, []byte(want)) {
			t.Fatalf("metrics scrape missing %q:\n%s", want, text)
		}
	}

	r, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d, want 200", r.StatusCode)
	}
	r.Body.Close()

	// Latency is recorded after the Done commit, so only Shutdown, which
	// waits for the worker, orders it before the read.
	shutdownNow(t, s)
	if m := scrape(t, ts.URL); m["svc_job_latency_ms_count"] != m["svc_jobs_done_total"] {
		t.Fatalf("after shutdown: latency count %d, done %d; want equal",
			m["svc_job_latency_ms_count"], m["svc_jobs_done_total"])
	}
}

// TestScrapeNeverTrailsPoll: a job a poll has seen done or dead is
// already counted by the scrape that follows, with no wait in between,
// and within one scrape the dead counter equals the dead-letter gauge:
// every lifecycle series is read from the same journal cut.
func TestScrapeNeverTrailsPoll(t *testing.T) {
	s := newTestService(t, Config{Workers: 2, MaxAttempts: 1, CheckpointInterval: -1})
	defer shutdownNow(t, s)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var ids []string
	for i := 0; i < 8; i++ {
		if i%4 == 3 {
			// No workload: fails its only attempt and dead-letters.
			j, err := s.Queue().Enqueue("acme", json.RawMessage(`{"config":"btb2"}`))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, j.ID)
			continue
		}
		resp := postJob(t, ts.URL, "acme", testSpec(50_000))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
		var j jobq.Job
		decodeInto(t, resp, &j)
		ids = append(ids, j.ID)
	}
	s.Start()

	seenDone, seenDead := int64(0), int64(0)
	for _, id := range ids {
		var j jobq.Job
		waitFor(t, 30*time.Second, "job "+id+" finished", func() bool {
			j = getJob(t, ts.URL, id)
			return j.State == jobq.StateDone || j.State == jobq.StateDead
		})
		if j.State == jobq.StateDone {
			seenDone++
		} else {
			seenDead++
		}
		m := scrape(t, ts.URL)
		if m["svc_jobs_done_total"] < seenDone || m["svc_jobs_dead_total"] < seenDead {
			t.Fatalf("after polling %s: scrape done=%d dead=%d, polls saw %d done, %d dead",
				id, m["svc_jobs_done_total"], m["svc_jobs_dead_total"], seenDone, seenDead)
		}
		if m["svc_jobs_dead_total"] != m["svc_queue_dead"] {
			t.Fatalf("one scrape: svc_jobs_dead_total %d, svc_queue_dead %d",
				m["svc_jobs_dead_total"], m["svc_queue_dead"])
		}
	}
	if seenDone != 6 || seenDead != 2 {
		t.Fatalf("polls saw %d done, %d dead; want 6 and 2", seenDone, seenDead)
	}
}

// TestHTTPTenantsThatSanitizeAlike: "a-b" and "a_b" map to one metric
// series set, summed over both; neither submission is refused.
func TestHTTPTenantsThatSanitizeAlike(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownNow(t, s)

	for _, tenant := range []string{"a-b", "a_b"} {
		resp := postJob(t, ts.URL, tenant, testSpec(100_000))
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("tenant %q submit = %d, want 202", tenant, resp.StatusCode)
		}
	}
	if v := scrape(t, ts.URL)["svc_tenant_a_b_admitted_total"]; v != 2 {
		t.Fatalf("svc_tenant_a_b_admitted_total = %d, want 2", v)
	}
}

// TestHTTPBackpressure: with no workers draining the queue, the
// admission layer sheds — queue-full submissions get 429 with a
// Retry-After, never a stall.
func TestHTTPBackpressure(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, MaxQueueDepth: 2})
	// Deliberately not started: jobs pile up in pending.
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownNow(t, s)

	for i := 0; i < 2; i++ {
		resp := postJob(t, ts.URL, "acme", testSpec(100_000))
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
	}
	resp := postJob(t, ts.URL, "acme", testSpec(100_000))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	var e apiError
	decodeInto(t, resp, &e)
	if !strings.Contains(e.Error, "queue full") {
		t.Fatalf("429 body %q does not explain the shed", e.Error)
	}
	if v, err := s.m.counterValue("svc_admission_rejected_full_total"); err != nil || v != 1 {
		t.Fatalf("svc_admission_rejected_full_total = %d, %v; want 1", v, err)
	}
	if d := s.Queue().Depth(); d.Pending != 2 {
		t.Fatalf("pending depth = %d, want bounded at 2", d.Pending)
	}
}

// TestHTTPTenantRateLimit: per-tenant token buckets shed one tenant's
// burst without touching another's.
func TestHTTPTenantRateLimit(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, TenantRate: 0.001, TenantBurst: 1, MaxQueueDepth: 16})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownNow(t, s)

	resp := postJob(t, ts.URL, "alpha", testSpec(100_000))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first alpha submit = %d, want 202", resp.StatusCode)
	}
	resp = postJob(t, ts.URL, "alpha", testSpec(100_000))
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second alpha submit = %d, want 429 (bucket empty)", resp.StatusCode)
	}
	resp = postJob(t, ts.URL, "beta", testSpec(100_000))
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("beta submit = %d, want 202 (independent bucket)", resp.StatusCode)
	}
	if v, err := s.m.counterValue("svc_tenant_alpha_rejected_total"); err != nil || v != 1 {
		t.Fatalf("svc_tenant_alpha_rejected_total = %d, %v; want 1", v, err)
	}
}

// TestHTTPRejectsBadSpecAtAdmission: an invalid spec earns a 400 at
// submit time, not a dead-letter after doomed attempts.
func TestHTTPRejectsBadSpecAtAdmission(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownNow(t, s)

	resp := postJob(t, ts.URL, "acme", json.RawMessage(`{"trace":"no-such-profile"}`))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad-spec submit = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/v1/jobs/j-999999")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job = %d, want 404", r.StatusCode)
	}
	r.Body.Close()
}

// TestHTTPRejectsUnknownSpecFields: a misspelled spec key or a knob the
// model no longer has earns a 400 naming it, instead of a job that runs
// at the defaults.
func TestHTTPRejectsUnknownSpecFields(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer shutdownNow(t, s)

	for key, spec := range map[string]string{
		"instructons":   `{"trace":"zos-lspr-cb84","instructons":1000}`,
		"DispatchTicks": `{"trace":"zos-lspr-cb84","instructions":1000,"params":{"DispatchTicks":9}}`,
	} {
		resp := postJob(t, ts.URL, "acme", json.RawMessage(spec))
		var e apiError
		decodeInto(t, resp, &e)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, key) {
			t.Errorf("spec with unknown key %q: status %d, error %q; want 400 naming it", key, resp.StatusCode, e.Error)
		}
	}
	if d := s.q.Depth(); d != (jobq.Depth{}) {
		t.Errorf("rejected specs enqueued jobs: %+v", d)
	}
}

// TestHTTPDrainingRefusesSubmissions: once Shutdown begins, new
// submissions get 503 and healthz reports draining.
func TestHTTPDrainingRefusesSubmissions(t *testing.T) {
	s := newTestService(t, Config{Workers: 1})
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	shutdownNow(t, s)

	resp := postJob(t, ts.URL, "acme", testSpec(100_000))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining submit = %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	r, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if r.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz = %d, want 503", r.StatusCode)
	}
	r.Body.Close()
}

// TestMetricsRegistered pins newMetrics to the metrics struct: every
// declared counter and histogram must reach the service registry.
func TestMetricsRegistered(t *testing.T) {
	m := newMetrics(nil, false)
	obstest.RequireRegistered(t, m.reg, m)
}
