package main

import "testing"

func TestSplitJobView(t *testing.T) {
	body := []byte(`{"id":"w0.r1","kind":"run","state":"done","scenario":"s","fingerprint":"sha256:ab","cached":true,"submitted":"2026-01-01T00:00:00Z","error":"a \",\"result\": b","result":{"schema":1,"x":{"result":2}}}` + "\n")
	st, result, err := splitJobView(body)
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "w0.r1" || !st.Cached || st.Error != `a ","result": b` {
		t.Errorf("status = %+v", st)
	}
	if string(result) != `{"schema":1,"x":{"result":2}}` {
		t.Errorf("result = %s", result)
	}
	st, result, err = splitJobView([]byte(`{"id":"g1","kind":"sweep","state":"running","scenario":"s","fingerprint":"f","cached":false,"submitted":"2026-01-01T00:00:00Z"}` + "\n"))
	if err != nil || result != nil || st.State != "running" {
		t.Errorf("running view: %+v, %s, %v", st, result, err)
	}
}

func TestDocHeadStopsAtTotal(t *testing.T) {
	doc := []byte(`{"schema":1,"name":"n","fingerprint":"sha256:ab","spec":{"total":{"rx_packets":7}},"workloads":[{"total":1}],"total":{"rx_packets":4626,"tx_packets":1},"switches":[` + "\n")
	fp, rx, err := docHead(doc) // the truncated tail past "total" is never read
	if err != nil || fp != "sha256:ab" || rx != 4626 {
		t.Fatalf("docHead = %q, %d, %v; want sha256:ab, 4626", fp, rx, err)
	}
	if _, _, err := docHead([]byte(`{"schema":1}`)); err == nil {
		t.Error("document without total: want an error")
	}
}

func TestHotCountsFollowZipf(t *testing.T) {
	counts := hotCounts(16)
	sum := 0
	for k, c := range counts {
		sum += c
		if c < 1 || (k > 0 && c > counts[k-1]) {
			t.Errorf("counts %v: every entry needs a share that shrinks with rank", counts)
			break
		}
	}
	if sum != hotBlock {
		t.Errorf("counts %v sum to %d, want %d", counts, sum, hotBlock)
	}
}
