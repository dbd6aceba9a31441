package fleet

import (
	"net/http"
	"strings"
	"testing"

	"occamy/internal/service"
)

// TestRouterForwardsEscapedValues pins the proxy's URL building: path
// and query values the router forwards are escaped, so a client gets
// the status a worker would give for the same request, never a 200 for
// a value the worker would have refused.
func TestRouterForwardsEscapedValues(t *testing.T) {
	f := startFleet(t, 1, nil)
	var st service.JobStatus
	if code := post(t, f.router.URL+"/v1/runs?name=quickstart&scale=quick", "", &st); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if view := await(t, f.router.URL, st.ID); view.State != service.JobDone {
		t.Fatalf("run ended %s: %s", view.State, view.Error)
	}
	workerID := strings.TrimPrefix(st.ID, "w0.")

	cases := []struct {
		name           string
		router, worker string
	}{
		{"export", "/v1/scenarios/burst-absorb?scale=quick", "/v1/scenarios/burst-absorb?scale=quick"},
		{"export scale with query", "/v1/scenarios/burst-absorb?scale=quick%26x%3D1", "/v1/scenarios/burst-absorb?scale=quick%26x%3D1"},
		{"export name with query", "/v1/scenarios/burst-absorb%3Fscale=paper", "/v1/scenarios/burst-absorb%3Fscale=paper"},
		{"trace", "/v1/runs/" + st.ID + "/trace.csv?stride=2", "/v1/runs/" + workerID + "/trace.csv?stride=2"},
		{"trace bad stride", "/v1/runs/" + st.ID + "/trace.csv?stride=2%26x", "/v1/runs/" + workerID + "/trace.csv?stride=2%26x"},
		{"run id with query", "/v1/runs/" + st.ID + "%3Fx", "/v1/runs/" + workerID + "%3Fx"},
	}
	get := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := get(f.workers[0].URL + c.worker)
			if got := get(f.router.URL + c.router); got != want {
				t.Fatalf("router answered %d, worker %d", got, want)
			}
		})
	}
}
