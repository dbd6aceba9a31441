package fleet

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"

	"occamy/internal/service"
)

// longSweepBody is a two-point sweep whose points each simulate ten
// virtual seconds of line-rate CBR: far longer than any test waits, so
// the sweep is still in flight when the test acts on it.
func longSweepBody(t *testing.T) string {
	t.Helper()
	spec := quickSpec(t, "quickstart")
	spec.Duration = 10e9 // 10 s of virtual time
	raw, err := spec.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(map[string]any{"spec": json.RawMessage(raw), "axes": []string{"policy.kind=dt,occamy"}})
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

// del issues a DELETE and decodes the job status it returns.
func del(t *testing.T, url string) (service.JobStatus, int) {
	t.Helper()
	req, err := http.NewRequest(http.MethodDelete, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decoding DELETE %s response: %v", url, err)
	}
	return st, resp.StatusCode
}

// routerStats fetches the router's merged GET /v1/stats document.
func routerStats(t *testing.T, base string) Stats {
	t.Helper()
	resp, err := http.Get(base + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRouterSweepCancel pins DELETE on an in-flight router sweep: the
// job ends canceled, not done or failed.
func TestRouterSweepCancel(t *testing.T) {
	f := startFleet(t, 2, nil)
	var st service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps", longSweepBody(t), &st); code != http.StatusAccepted {
		t.Fatalf("sweep POST: status %d", code)
	}
	if st.State.Terminal() {
		t.Fatalf("long sweep is already %s at submission", st.State)
	}
	got, code := del(t, f.router.URL+"/v1/runs/"+st.ID)
	if code != http.StatusOK || got.ID != st.ID {
		t.Fatalf("DELETE %s: status %d, id %q", st.ID, code, got.ID)
	}
	if view := await(t, f.router.URL, st.ID); view.State != service.JobCanceled {
		t.Fatalf("canceled sweep ended %s: %s", view.State, view.Error)
	}
}

// TestRouterSweepCoalesces pins in-flight coalescing: an identical
// sweep submitted while the first is still running joins it.
func TestRouterSweepCoalesces(t *testing.T) {
	f := startFleet(t, 2, nil)
	body := longSweepBody(t)
	var first, second service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps", body, &first); code != http.StatusAccepted {
		t.Fatalf("first sweep POST: status %d", code)
	}
	if code := post(t, f.router.URL+"/v1/sweeps", body, &second); code != http.StatusAccepted {
		t.Fatalf("second sweep POST: status %d", code)
	}
	if second.ID != first.ID || second.Cached {
		t.Fatalf("identical in-flight sweeps got jobs %q and %q (cached=%v), want one shared job", first.ID, second.ID, second.Cached)
	}
	del(t, f.router.URL+"/v1/runs/"+first.ID)
	await(t, f.router.URL, first.ID)
}

// TestRouterSweepCacheHit pins the router's sweep cache: resubmitting a
// finished sweep is born done and cached, and the router ledger counts
// both submissions and the hit.
func TestRouterSweepCacheHit(t *testing.T) {
	f := startFleet(t, 2, nil)
	body := `{"name":"burst-absorb","scale":"quick","axes":["policy.kind=dt,occamy"]}`
	var first service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps", body, &first); code != http.StatusAccepted {
		t.Fatalf("sweep POST: status %d", code)
	}
	if view := await(t, f.router.URL, first.ID); view.State != service.JobDone {
		t.Fatalf("sweep ended %s: %s", view.State, view.Error)
	}
	before := routerStats(t, f.router.URL).Router.Counters

	var again service.JobStatus
	if code := post(t, f.router.URL+"/v1/sweeps", body, &again); code != http.StatusAccepted {
		t.Fatalf("sweep resubmit: status %d", code)
	}
	if !again.Cached || again.State != service.JobDone {
		t.Fatalf("sweep resubmission: cached=%v state=%s, want a done cache hit", again.Cached, again.State)
	}
	after := routerStats(t, f.router.URL).Router.Counters
	if after.Sweeps != before.Sweeps+1 || after.SweepCacheHits != before.SweepCacheHits+1 {
		t.Fatalf("router counters before %+v after %+v: want sweeps and sweep_cache_hits each +1", before, after)
	}
}

// TestRouterSweepOverCap pins the grid cap through the router: a grid
// past MaxSweepPoints is a 400, checked before anything runs.
func TestRouterSweepOverCap(t *testing.T) {
	f := startFleet(t, 1, nil)
	vals := make([]string, 10)
	for i := range vals {
		vals[i] = fmt.Sprint(i + 1)
	}
	axis := strings.Join(vals, ",")
	body := fmt.Sprintf(`{"name":"burst-absorb","scale":"quick","axes":["policy.alpha=%s","seed=%s","duration=%s"]}`,
		axis, axis, strings.ReplaceAll(axis, ",", "ms,")+"ms")
	var out map[string]string
	if code := post(t, f.router.URL+"/v1/sweeps", body, &out); code != http.StatusBadRequest {
		t.Fatalf("1000-point sweep through the router: status %d, want 400", code)
	}
	if out["error"] == "" {
		t.Fatal("over-cap 400 carries no error body")
	}
}

// TestRouterSweepJobsMetric pins occamy_router_sweep_jobs: the gauge
// counts the router's sweep jobs.
func TestRouterSweepJobsMetric(t *testing.T) {
	f := startFleet(t, 2, nil)
	for _, kinds := range []string{"dt,occamy", "dt,cs"} {
		var st service.JobStatus
		body := fmt.Sprintf(`{"name":"burst-absorb","scale":"quick","axes":["policy.kind=%s"]}`, kinds)
		if code := post(t, f.router.URL+"/v1/sweeps", body, &st); code != http.StatusAccepted {
			t.Fatalf("sweep POST: status %d", code)
		}
		await(t, f.router.URL, st.ID)
	}
	resp, err := http.Get(f.router.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	page, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(page), "\noccamy_router_sweep_jobs 2\n") {
		t.Fatalf("router /metrics does not report 2 sweep jobs:\n%s", page)
	}
}
