package campaign

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// newTestAPI builds a scheduler (clock pinned to zero so responses are
// golden) behind an httptest server. start=false keeps submitted jobs
// queued forever, which makes lifecycle responses deterministic.
func newTestAPI(t *testing.T, start bool, slots int) (*Scheduler, *httptest.Server) {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	st.now = func() int64 { return 0 }
	s, err := Open(st, SchedulerConfig{Slots: slots})
	if err != nil {
		t.Fatal(err)
	}
	if start {
		s.Start()
	}
	t.Cleanup(s.Close)
	srv := httptest.NewServer(NewAPI(s))
	t.Cleanup(srv.Close)
	return s, srv
}

func do(t *testing.T, method, url, body string) (int, string) {
	t.Helper()
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestSubmitGolden pins the exact submit response bytes: a normalized
// spec echo plus the queued lifecycle state, nothing else.
func TestSubmitGolden(t *testing.T) {
	_, srv := newTestAPI(t, false, 1)
	status, body := do(t, "POST", srv.URL+"/api/v1/jobs", `{"kind":"fuzz","execs":500}`)
	if status != http.StatusCreated {
		t.Fatalf("status %d, want 201 (body %s)", status, body)
	}
	want := `{"id":"job-000001","spec":{"kind":"fuzz","suite":"user","cov":"v3","isa":"RV32GC","seed":1,"execs":500,"workers":1,"sims":null},"state":"queued"}` + "\n"
	if body != want {
		t.Fatalf("submit body:\n got %q\nwant %q", body, want)
	}

	status, body = do(t, "GET", srv.URL+"/api/v1/jobs/job-000001", "")
	if status != http.StatusOK || body != want {
		t.Fatalf("get status %d body %q, want 200 %q", status, body, want)
	}

	status, body = do(t, "GET", srv.URL+"/api/v1/jobs", "")
	wantList := `{"jobs":[` + strings.TrimSuffix(want, "\n") + `]}` + "\n"
	if status != http.StatusOK || body != wantList {
		t.Fatalf("list status %d body %q, want 200 %q", status, body, wantList)
	}
}

// TestSubmitInvalidSpecs pins the 4xx contract: malformed bodies,
// unknown fields and invalid specs are client errors, never 500s.
func TestSubmitInvalidSpecs(t *testing.T) {
	_, srv := newTestAPI(t, false, 1)
	cases := []struct {
		body     string
		wantFrag string
	}{
		{`{`, "decoding job spec"},
		{`{"kind":"fuzz","execs":1,"bogus":true}`, `unknown field \"bogus\"`},
		{`{"kind":"fuzz","execs":1,"batch":8}`, `unknown field \"batch\"`},
		{`{"kind":"fuzz","execs":1,"disable_predecode":true}`, `unknown field \"disable_predecode\"`},
		{`{"kind":"warp"}`, `unknown kind \"warp\"`},
		{`{"kind":"fuzz"}`, "fuzz job needs an execs budget"},
		{`{"kind":"fuzz","execs":10,"cov":"v9"}`, `unknown coverage configuration \"v9\"`},
		{`{"kind":"compliance","execs":10,"sims":["NoSuchSim"]}`, `unknown simulator \"NoSuchSim\"`},
		{`{"kind":"compliance"}`, "needs a suite file"},
		{`{"kind":"compliance","execs":10,"sims":[]}`, "no simulators under test"},
	}
	for _, c := range cases {
		status, body := do(t, "POST", srv.URL+"/api/v1/jobs", c.body)
		if status != http.StatusBadRequest {
			t.Errorf("submit %s: status %d, want 400 (body %s)", c.body, status, body)
		}
		if !strings.Contains(body, c.wantFrag) {
			t.Errorf("submit %s: body %q does not mention %q", c.body, body, c.wantFrag)
		}
		var eb map[string]any
		if err := json.Unmarshal([]byte(body), &eb); err != nil || eb["error"] == "" {
			t.Errorf("submit %s: body %q is not an error object", c.body, body)
		}
	}
}

// TestSubmitIgnoresMinimizeKey: the "minimize" key is accepted (201,
// not the 400 an unknown field gets) and ignored, because a fuzz job
// minimizes exactly when it merges two or more workers' corpora. At
// workers 1 and 2, a job that sends it writes the same artifacts as the
// same job without it.
func TestSubmitIgnoresMinimizeKey(t *testing.T) {
	_, srv := newTestAPI(t, true, 1)
	artifacts := func(body string) map[string][]byte {
		t.Helper()
		status, resp := do(t, "POST", srv.URL+"/api/v1/jobs", body)
		if status != http.StatusCreated {
			t.Fatalf("submit %s: status %d, want 201 (body %s)", body, status, resp)
		}
		var job Job
		if err := json.Unmarshal([]byte(resp), &job); err != nil {
			t.Fatal(err)
		}
		jobURL := srv.URL + "/api/v1/jobs/" + job.ID
		if status, resp = do(t, "GET", jobURL+"/wait?timeout_sec=120", ""); status != http.StatusOK {
			t.Fatalf("wait %s: status %d body %s", job.ID, status, resp)
		}
		if err := json.Unmarshal([]byte(resp), &job); err != nil {
			t.Fatal(err)
		}
		if job.State != StateDone {
			t.Fatalf("job %s finished %s (error %q), want done", job.ID, job.State, job.Error)
		}
		_, resp = do(t, "GET", jobURL+"/artifacts", "")
		var list fileList
		if err := json.Unmarshal([]byte(resp), &list); err != nil {
			t.Fatal(err)
		}
		out := map[string][]byte{}
		for _, f := range list.Files {
			status, raw := do(t, "GET", jobURL+"/artifacts/"+f.Name, "")
			if status != http.StatusOK {
				t.Fatalf("artifact %s of %s: status %d", f.Name, job.ID, status)
			}
			out[f.Name] = []byte(raw)
		}
		return out
	}
	for _, workers := range []int{1, 2} {
		spec := fmt.Sprintf(`{"kind":"fuzz","seed":3,"execs":4000,"workers":%d`, workers)
		plain := artifacts(spec + "}")
		compareArtifacts(t, plain, artifacts(spec+`,"minimize":true}`))
	}
}

func TestJobNotFound(t *testing.T) {
	_, srv := newTestAPI(t, false, 1)
	for _, url := range []string{
		"/api/v1/jobs/job-000042",
		"/api/v1/jobs/job-000042/artifacts",
		"/api/v1/jobs/job-000042/quarantine",
		"/api/v1/jobs/job-000042/artifacts/suite.txt",
	} {
		status, body := do(t, "GET", srv.URL+url, "")
		if status != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404 (body %s)", url, status, body)
		}
	}
	status, _ := do(t, "POST", srv.URL+"/api/v1/jobs/job-000042/cancel", "")
	if status != http.StatusNotFound {
		t.Errorf("cancel missing job: status %d, want 404", status)
	}
}

func TestCancelLifecycleOverHTTP(t *testing.T) {
	_, srv := newTestAPI(t, false, 1)
	do(t, "POST", srv.URL+"/api/v1/jobs", `{"kind":"fuzz","execs":500}`)
	status, body := do(t, "POST", srv.URL+"/api/v1/jobs/job-000001/cancel", "")
	if status != http.StatusOK || !strings.Contains(body, `"state":"canceled"`) {
		t.Fatalf("cancel: status %d body %s", status, body)
	}
	status, body = do(t, "POST", srv.URL+"/api/v1/jobs/job-000001/cancel", "")
	if status != http.StatusConflict {
		t.Fatalf("second cancel: status %d body %s, want 409", status, body)
	}
}

func TestArtifactEndpoints(t *testing.T) {
	_, srv := newTestAPI(t, false, 1)
	do(t, "POST", srv.URL+"/api/v1/jobs", `{"kind":"fuzz","execs":500}`)
	status, body := do(t, "GET", srv.URL+"/api/v1/jobs/job-000001/artifacts", "")
	if status != http.StatusOK || body != `{"files":[]}`+"\n" {
		t.Fatalf("artifacts of queued job: status %d body %q", status, body)
	}
	status, body = do(t, "GET", srv.URL+"/api/v1/jobs/job-000001/artifacts/suite.txt", "")
	if status != http.StatusNotFound {
		t.Fatalf("missing artifact: status %d body %s, want 404", status, body)
	}
	status, body = do(t, "GET", srv.URL+"/api/v1/jobs/job-000001/quarantine", "")
	if status != http.StatusOK || body != `{"files":[]}`+"\n" {
		t.Fatalf("quarantine of queued job: status %d body %q", status, body)
	}
}

func TestHealthz(t *testing.T) {
	_, srv := newTestAPI(t, false, 1)
	do(t, "POST", srv.URL+"/api/v1/jobs", `{"kind":"fuzz","execs":500}`)
	status, body := do(t, "GET", srv.URL+"/api/v1/healthz", "")
	want := `{"status":"ok","jobs":1,"queued":1,"running":0}` + "\n"
	if status != http.StatusOK || body != want {
		t.Fatalf("healthz: status %d body %q, want %q", status, body, want)
	}
}

func TestWaitRejectsBadTimeout(t *testing.T) {
	_, srv := newTestAPI(t, false, 1)
	do(t, "POST", srv.URL+"/api/v1/jobs", `{"kind":"fuzz","execs":500}`)
	status, _ := do(t, "GET", srv.URL+"/api/v1/jobs/job-000001/wait?timeout_sec=nope", "")
	if status != http.StatusBadRequest {
		t.Fatalf("bad timeout: status %d, want 400", status)
	}
}

// TestConcurrentSubmitHammer drives parallel submissions and waits for
// every job to finish; run with -race this shakes out scheduler and
// store races.
func TestConcurrentSubmitHammer(t *testing.T) {
	_, srv := newTestAPI(t, true, 2)
	const goroutines, each = 8, 3
	ids := make(chan string, goroutines*each)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				spec := fmt.Sprintf(`{"kind":"fuzz","execs":300,"seed":%d}`, g*each+i+1)
				status, body := do(t, "POST", srv.URL+"/api/v1/jobs", spec)
				if status != http.StatusCreated {
					t.Errorf("submit: status %d body %s", status, body)
					return
				}
				var job Job
				if err := json.Unmarshal([]byte(body), &job); err != nil {
					t.Errorf("decoding submit response: %v", err)
					return
				}
				ids <- job.ID
			}
		}(g)
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate job ID %s", id)
		}
		seen[id] = true
		status, body := do(t, "GET", srv.URL+"/api/v1/jobs/"+id+"/wait?timeout_sec=120", "")
		if status != http.StatusOK {
			t.Fatalf("wait %s: status %d body %s", id, status, body)
		}
		var job Job
		if err := json.Unmarshal([]byte(body), &job); err != nil {
			t.Fatal(err)
		}
		if job.State != StateDone {
			t.Fatalf("job %s finished %s (error %q), want done", id, job.State, job.Error)
		}
	}
	if len(seen) != goroutines*each {
		t.Fatalf("completed %d jobs, want %d", len(seen), goroutines*each)
	}
}
