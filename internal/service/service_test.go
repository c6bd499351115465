package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	return newTestServerOpts(t, Options{Workers: 4, CacheSize: 4, JobTimeout: time.Minute})
}

func newTestServerOpts(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	svc, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		ts.Close()
		svc.Close(context.Background())
	})
	return svc, ts
}

func postJSON(t *testing.T, url string, body any, out any) (int, string) {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decoding %s: %v (%s)", url, err, raw.String())
		}
	}
	return resp.StatusCode, raw.String()
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestEndToEndSession drives the full profile -> simulate -> sweep
// session the daemon exists for, asserting that the second identical
// simulate skips re-profiling (served from the SFG cache) and that the
// sweep reuses the same resident profile.
func TestEndToEndSession(t *testing.T) {
	svc, ts := newTestServer(t)
	spec := ProfileSpec{Workload: "gzip", K: 1, N: 60_000, Seed: 1}

	// Profile: miss, then hit.
	var prof ProfileResponse
	if code, body := postJSON(t, ts.URL+"/v1/profile", ProfileRequest{ProfileSpec: spec}, &prof); code != 200 {
		t.Fatalf("profile: %d %s", code, body)
	}
	if prof.Cached || prof.Nodes == 0 || prof.TotalInstructions != 60_000 {
		t.Fatalf("first profile response: %+v", prof)
	}
	var prof2 ProfileResponse
	postJSON(t, ts.URL+"/v1/profile", ProfileRequest{ProfileSpec: spec}, &prof2)
	if !prof2.Cached || prof2.Nodes != prof.Nodes {
		t.Fatalf("second profile not served from cache: %+v", prof2)
	}

	// Simulate from the resident profile: must not re-profile.
	simReq := SimulateRequest{Profile: spec, Target: 10_000}
	var sim1, sim2 SimulateResponse
	if code, body := postJSON(t, ts.URL+"/v1/simulate", simReq, &sim1); code != 200 {
		t.Fatalf("simulate: %d %s", code, body)
	}
	if !sim1.ProfileCached {
		t.Error("simulate re-profiled a resident SFG")
	}
	if sim1.Metrics.IPC <= 0 || sim1.Metrics.EDP <= 0 {
		t.Errorf("degenerate metrics: %+v", sim1.Metrics)
	}
	postJSON(t, ts.URL+"/v1/simulate", simReq, &sim2)
	if sim2.Metrics != sim1.Metrics {
		t.Error("identical simulate requests returned different metrics")
	}
	if st := svc.cache.Stats(); st.Misses != 1 {
		t.Errorf("cache misses %d, want exactly 1 (one profiling run for the whole session)", st.Misses)
	}

	// Cache-hit speedup: a fresh profile+simulate pays profiling, the
	// cached replay does not.
	fresh := SimulateRequest{Profile: ProfileSpec{Workload: "gzip", K: 1, N: 60_000, Seed: 2}, Target: 10_000}
	var cold, warm SimulateResponse
	postJSON(t, ts.URL+"/v1/simulate", fresh, &cold)
	postJSON(t, ts.URL+"/v1/simulate", fresh, &warm)
	if cold.ProfileCached || !warm.ProfileCached {
		t.Errorf("cold/warm cache flags wrong: %v/%v", cold.ProfileCached, warm.ProfileCached)
	}
	t.Logf("cache-hit speedup: cold %.1fms -> warm %.1fms (%.1fx)",
		cold.ElapsedMS, warm.ElapsedMS, cold.ElapsedMS/warm.ElapsedMS)
	if warm.ElapsedMS > cold.ElapsedMS {
		t.Errorf("cached simulate (%.1fms) slower than cold profile+simulate (%.1fms)",
			warm.ElapsedMS, cold.ElapsedMS)
	}

	// Sweep the quick grid from the same resident profile.
	var sweep SweepResponse
	if code, body := postJSON(t, ts.URL+"/v1/sweep",
		SweepRequest{Profile: spec, Grid: "quick", Target: 5_000}, &sweep); code != 200 {
		t.Fatalf("sweep: %d %s", code, body)
	}
	if !sweep.ProfileCached {
		t.Error("sweep re-profiled a resident SFG")
	}
	if sweep.Points != 9 || len(sweep.Results) != 9 {
		t.Fatalf("sweep shape: %+v", sweep)
	}
	for i, pt := range QuickGrid() {
		if sweep.Results[i].Point != pt {
			t.Fatalf("sweep result %d out of grid order: %v", i, sweep.Results[i].Point)
		}
	}
	best := sweep.Results[sweep.Best].Metrics.EDP
	for _, row := range sweep.Results {
		if row.Metrics.EDP < best {
			t.Errorf("best index wrong: %v < %v", row.Metrics.EDP, best)
		}
	}
}

func TestWorkloadsHealthzMetrics(t *testing.T) {
	svc, ts := newTestServer(t)

	var ws []WorkloadInfo
	if code := getJSON(t, ts.URL+"/v1/workloads", &ws); code != 200 {
		t.Fatalf("workloads: %d", code)
	}
	if len(ws) != 10 || ws[0].Blocks == 0 {
		t.Errorf("workloads: %+v", ws)
	}

	var health map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &health); code != 200 {
		t.Fatalf("healthz: %d", code)
	}
	if health["status"] != "ok" {
		t.Errorf("healthz: %v", health)
	}

	// Generate some traffic, then read it back from /metrics.
	postJSON(t, ts.URL+"/v1/profile",
		ProfileRequest{ProfileSpec: ProfileSpec{Workload: "vpr", N: 20_000}}, nil)
	postJSON(t, ts.URL+"/v1/profile",
		ProfileRequest{ProfileSpec: ProfileSpec{Workload: "vpr", N: 20_000}}, nil)
	postJSON(t, ts.URL+"/v1/simulate",
		SimulateRequest{Profile: ProfileSpec{Workload: "vpr", N: 20_000}, Target: 5_000}, nil)
	var snap MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &snap); code != 200 {
		t.Fatalf("metrics: %d", code)
	}
	if snap.Cache.Hits != 2 || snap.Cache.Misses != 1 {
		t.Errorf("cache stats: %+v", snap.Cache)
	}
	if ep, ok := snap.Endpoints["/v1/profile"]; !ok || ep.Count != 2 || ep.MeanMS <= 0 {
		t.Errorf("profile endpoint stats: %+v", snap.Endpoints)
	}
	if snap.Pool.Workers != 4 || snap.Pool.Completed == 0 {
		t.Errorf("pool stats: %+v", snap.Pool)
	}
	// Stage families: exactly one real profiling run happened (the other
	// two requests hit the cache), and the simulate request recorded its
	// reduce/generate/simulate breakdown.
	if st, ok := snap.Stages[obs.StageProfile]; !ok || st.Count != 1 {
		t.Errorf("profile stage stats: %+v", snap.Stages)
	}
	for _, stage := range []string{obs.StageReduce, obs.StageGenerate, obs.StageSimulate} {
		if st, ok := snap.Stages[stage]; !ok || st.Count != 1 {
			t.Errorf("stage %q stats: %+v", stage, snap.Stages[stage])
		}
	}
	_ = svc
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t)
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"missing workload", "/v1/profile", ProfileRequest{}},
		{"unknown workload", "/v1/profile", ProfileRequest{ProfileSpec: ProfileSpec{Workload: "nope", N: 1000}}},
		{"bad k", "/v1/profile", ProfileRequest{ProfileSpec: ProfileSpec{Workload: "vpr", K: 9, N: 1000}}},
		{"oversized n", "/v1/profile", ProfileRequest{ProfileSpec: ProfileSpec{Workload: "vpr", N: 1 << 60}}},
		{"no grid", "/v1/sweep", SweepRequest{Profile: ProfileSpec{Workload: "vpr", N: 1000}}},
		{"bad grid", "/v1/sweep", SweepRequest{Profile: ProfileSpec{Workload: "vpr", N: 1000}, Grid: "nope"}},
		{"grid and points", "/v1/sweep", SweepRequest{Profile: ProfileSpec{Workload: "vpr", N: 1000},
			Grid: "quick", Points: []SweepPoint{{RUU: 8, LSQ: 4, Decode: 2, Issue: 2, Commit: 2}}}},
		{"unknown field", "/v1/simulate", map[string]any{"profile": map[string]any{"workload": "vpr"}, "wat": 1}},
	}
	for _, tc := range cases {
		if code, body := postJSON(t, ts.URL+tc.url, tc.body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", tc.name, code, body)
		} else if !json.Valid([]byte(body)) {
			t.Errorf("%s: error body not JSON: %s", tc.name, body)
		}
	}
	// Method mismatches fall out of the Go 1.22 mux patterns.
	if code := getJSON(t, ts.URL+"/v1/profile", nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/profile: %d", code)
	}
	resp, err := http.Post(ts.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /healthz: %d", resp.StatusCode)
	}
}

// TestInvalidConfigRejected: a configuration the model cannot run (LSQ
// 32 over RUU 16) is the caller's error. It gets a 400 before any
// profile is resolved or any job dispatched — no panic, no retry, no
// 500.
func TestInvalidConfigRejected(t *testing.T) {
	svc, ts := newTestServerOpts(t, Options{Workers: 4, CacheSize: 4, JobTimeout: time.Minute,
		Retry: RetryPolicy{Attempts: 3}})
	prof := ProfileSpec{Workload: "vpr", N: 20_000}
	cases := []struct {
		name string
		url  string
		body any
	}{
		{"simulate lsq over ruu", "/v1/simulate", map[string]any{"profile": prof, "config": map[string]any{"ruu": 16}}},
		{"fidelity simulate lsq over ruu", "/v1/simulate", map[string]any{"profile": prof, "config": map[string]any{"ruu": 16},
			"fidelity": map[string]any{}}},
		{"sweep point lsq over ruu", "/v1/sweep", SweepRequest{Profile: prof,
			Points: []SweepPoint{{RUU: 32, LSQ: 16, Decode: 4, Issue: 4, Commit: 4}, {RUU: 8, LSQ: 16, Decode: 4, Issue: 4, Commit: 4}}}},
		{"sweep base ifq too large", "/v1/sweep", SweepRequest{Profile: prof, Grid: "quick", Config: ConfigSpec{IFQ: 1<<20 + 1}}},
	}
	for _, tc := range cases {
		code, body := postJSON(t, ts.URL+tc.url, tc.body, nil)
		if code != http.StatusBadRequest || !json.Valid([]byte(body)) || !strings.Contains(body, "cpu: ") {
			t.Errorf("%s: status %d (%s), want a JSON 400 naming the config fault", tc.name, code, body)
		}
	}
	if n := svc.retries.Load(); n != 0 {
		t.Errorf("%d job retries, want 0", n)
	}
	if st := svc.Pool().Stats(); st.Panics != 0 || st.Completed != 0 {
		t.Errorf("pool stats %+v, want no job run at all", st)
	}
	if st := svc.cache.Stats(); st.Misses != 0 {
		t.Errorf("cache stats %+v, want no profile resolved", st)
	}
}

// TestConcurrentIdenticalSimulates hammers one key from many goroutines:
// exactly one profiling run must happen (coalescing), every response must
// agree, and -race must stay silent across the shared frozen graph.
func TestConcurrentIdenticalSimulates(t *testing.T) {
	svc, ts := newTestServer(t)
	req := SimulateRequest{Profile: ProfileSpec{Workload: "twolf", K: 1, N: 30_000}, Target: 5_000}

	const clients = 8
	results := make(chan SimulateResponse, clients)
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		go func() {
			var out SimulateResponse
			buf, _ := json.Marshal(req)
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(buf))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			results <- out
		}()
	}
	var first *SimulateResponse
	for i := 0; i < clients; i++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case r := <-results:
			if first == nil {
				first = &r
			} else if r.Metrics != first.Metrics {
				t.Fatalf("concurrent identical requests disagree: %+v vs %+v", r.Metrics, first.Metrics)
			}
		}
	}
	if st := svc.cache.Stats(); st.Misses != 1 {
		t.Errorf("%d concurrent identical requests ran %d profiling jobs, want 1", clients, st.Misses)
	}
}

func postRaw(t *testing.T, url, body string) (int, http.Header, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	raw.ReadFrom(resp.Body)
	return resp.StatusCode, resp.Header, raw.String()
}

// TestBodyLimitsAndMalformedInput: oversized bodies get a structured
// 413, garbage and trailing data structured 400s — never a bare 500.
func TestBodyLimitsAndMalformedInput(t *testing.T) {
	_, ts := newTestServerOpts(t, Options{Workers: 2, CacheSize: 2,
		JobTimeout: time.Minute, MaxRequestBytes: 256})

	big := `{"workload":"vpr","n":1000,"padding":"` + strings.Repeat("x", 1024) + `"}`
	code, _, body := postRaw(t, ts.URL+"/v1/profile", big)
	if code != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized body: %d %s", code, body)
	}
	if !json.Valid([]byte(body)) {
		t.Errorf("413 body not JSON: %s", body)
	}
	for name, payload := range map[string]string{
		"garbage":       `{"workload":`,
		"not json":      `hello`,
		"trailing data": `{"workload":"vpr","n":1000}{"again":true}`,
		"wrong type":    `{"workload":123}`,
	} {
		code, _, body := postRaw(t, ts.URL+"/v1/profile", payload)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (%s)", name, code, body)
		}
		if !json.Valid([]byte(body)) {
			t.Errorf("%s: error body not JSON: %s", name, body)
		}
	}
}

// TestHealthzDrainingRefusesWork: after Close begins, /healthz flips to
// 503 draining and work submissions are refused with a Retry-After.
func TestHealthzDrainingRefusesWork(t *testing.T) {
	svc, err := New(Options{Workers: 1, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	svc.Close(context.Background())

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining healthz status %d", resp.StatusCode)
	}
	if h.Status != "draining" || !h.Live || h.Ready {
		t.Errorf("draining health body %+v", h)
	}

	code, hdr, body := postRaw(t, ts.URL+"/v1/profile", `{"workload":"vpr","n":1000}`)
	if code != http.StatusServiceUnavailable {
		t.Errorf("draining profile: %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

// TestChaosOverloadShedding saturates a one-worker pool and asserts the
// daemon degrades gracefully: excess requests are shed with 429 +
// Retry-After (not queued into latency collapse), /healthz reports
// shedding/503 for load balancers, and the shed count is observable.
func TestChaosOverloadShedding(t *testing.T) {
	svc, ts := newTestServerOpts(t, Options{Workers: 1, CacheSize: 2,
		JobTimeout: time.Minute, MaxQueueDepth: 1})

	// Occupy the worker and fill the queue past the admission limit.
	release := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			svc.Pool().Do(context.Background(), func(context.Context) error {
				<-release
				return nil
			})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for svc.Pool().Stats().QueueDepth < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	code, hdr, body := postRaw(t, ts.URL+"/v1/profile", `{"workload":"vpr","n":1000}`)
	if code != http.StatusTooManyRequests {
		t.Errorf("overloaded profile: %d %s", code, body)
	}
	if hdr.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h HealthResponse
	json.NewDecoder(resp.Body).Decode(&h)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || h.Status != "shedding" || h.Ready {
		t.Errorf("overloaded healthz: %d %+v", resp.StatusCode, h)
	}

	close(release)
	wg.Wait()

	var snap MetricsSnapshot
	getJSON(t, ts.URL+"/metrics", &snap)
	if snap.Robustness.Shed == 0 {
		t.Errorf("shed requests not counted: %+v", snap.Robustness)
	}
	// Load cleared: admission and health recover.
	code, _, body = postRaw(t, ts.URL+"/v1/profile", `{"workload":"vpr","n":1000}`)
	if code != http.StatusOK {
		t.Errorf("post-overload profile: %d %s", code, body)
	}
}

// TestDurableStoreAcrossRestart is the crash-safety e2e: a second
// daemon life pointed at the same cache-dir serves the first life's
// profile without re-profiling and resumes its sweep without
// re-simulating, with identical results.
func TestDurableStoreAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	mkOpts := func() Options {
		return Options{Workers: 2, CacheSize: 2, JobTimeout: time.Minute, CacheDir: dir}
	}
	profile := `{"workload":"vpr","n":20000}`
	sweepReq := SweepRequest{Profile: ProfileSpec{Workload: "vpr", N: 20_000}, Grid: "quick", Target: 5_000}

	// First life: profile and sweep, both paid in full.
	svc1, ts1 := newTestServerOpts(t, mkOpts())
	if code, _, body := postRaw(t, ts1.URL+"/v1/profile", profile); code != 200 {
		t.Fatalf("life 1 profile: %d %s", code, body)
	}
	var sweep1 SweepResponse
	if code, body := postJSON(t, ts1.URL+"/v1/sweep", sweepReq, &sweep1); code != 200 {
		t.Fatalf("life 1 sweep: %d %s", code, body)
	}
	if sweep1.Resumed != 0 {
		t.Fatalf("fresh sweep claims %d resumed points", sweep1.Resumed)
	}
	if st := svc1.Store().Stats(); st.Saves != 1 {
		t.Fatalf("life 1 store stats %+v", st)
	}
	svc1.Close(context.Background())

	// Second life: same directory, empty caches.
	svc2, ts2 := newTestServerOpts(t, mkOpts())
	var prof ProfileResponse
	if code, body := postJSON(t, ts2.URL+"/v1/profile", ProfileRequest{ProfileSpec: ProfileSpec{Workload: "vpr", N: 20_000}}, &prof); code != 200 {
		t.Fatalf("life 2 profile: %d %s", code, body)
	}
	var sweep2 SweepResponse
	if code, body := postJSON(t, ts2.URL+"/v1/sweep", sweepReq, &sweep2); code != 200 {
		t.Fatalf("life 2 sweep: %d %s", code, body)
	}
	if sweep2.Resumed != sweep2.Points {
		t.Errorf("restarted sweep resumed %d of %d points", sweep2.Resumed, sweep2.Points)
	}
	a, _ := json.Marshal(sweep1.Results)
	b, _ := json.Marshal(sweep2.Results)
	if string(a) != string(b) {
		t.Error("restarted sweep results differ from the first life's")
	}
	// Nothing was recomputed: the profile came from the store and every
	// sweep point from its journal, so the pool never ran a job.
	if st := svc2.Pool().Stats(); st.Completed != 0 {
		t.Errorf("life 2 ran %d pool jobs, want 0 (everything served from disk)", st.Completed)
	}
	if st := svc2.Store().Stats(); st.Loads != 1 || st.Misses != 0 {
		t.Errorf("life 2 store stats %+v", st)
	}
	var snap MetricsSnapshot
	getJSON(t, ts2.URL+"/metrics", &snap)
	if snap.Store == nil || snap.Robustness.SweepPointsResumed != uint64(sweep2.Points) {
		t.Errorf("life 2 metrics: store=%+v robustness=%+v", snap.Store, snap.Robustness)
	}
}
