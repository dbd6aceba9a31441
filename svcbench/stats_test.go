package main

import (
	"os"
	"strings"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		{0.1, 1}, {0.5, 5}, {0.55, 6}, {0.9, 9}, {0.95, 10}, {1, 10},
	} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(q=%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %g, want 0", got)
	}
}

func TestTailQuantileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n      int
		limit  float64
		want   float64
		wantOK bool
	}{
		{5, 0.99, 0.5, false},  // even the median has only 2 beyond it
		{19, 0.99, 0.5, false}, // rank 10 of 19: 9 beyond
		{20, 0.99, 0.5, true},  // rank 10 of 20: exactly 10 beyond
		{33, 0.6, 0.6, true},   // rank 20 of 33: 13 beyond
		{33, 0.99, 0.6, true},  // p70 is rank 24 of 33: 9 beyond
		{300, 0.95, 0.95, true},
		{300, 0.999, 0.95, true}, // p98 is rank 294 of 300: 6 beyond
		{1000, 0.999, 0.99, true},
		{100000, 0.999, 0.999, true},
	} {
		q, ok := tailQuantile(c.n, c.limit)
		if q != c.want || ok != c.wantOK {
			t.Errorf("tailQuantile(%d, %g) = %g, %v; want %g, %v", c.n, c.limit, q, ok, c.want, c.wantOK)
		}
	}
	// Whatever it picks keeps at least minBeyond samples beyond, and the
	// next ladder step would not.
	for n := 20; n <= 3000; n++ {
		q, ok := tailQuantile(n, 1)
		if !ok || n-rankOf(n, q) < minBeyond {
			t.Fatalf("n=%d: p%g leaves %d beyond", n, q*100, n-rankOf(n, q))
		}
		for _, p := range tailLadder {
			if p > q && n-rankOf(n, p) >= minBeyond {
				t.Fatalf("n=%d: picked p%g though p%g also keeps %d beyond", n, q*100, p*100, minBeyond)
			}
		}
	}
}

const procStatus = `Name:	occamy-served
Umask:	0022
State:	S (sleeping)
VmPeak:	 1290672 kB
VmSize:	 1290672 kB
VmHWM:	   96132 kB
VmRSS:	   81024 kB
Threads:	5
`

func TestReadVmHWM(t *testing.T) {
	kb, err := readVmHWM(strings.NewReader(procStatus))
	if err != nil || kb != 96132 {
		t.Fatalf("readVmHWM = %d, %v; want 96132", kb, err)
	}
	if _, err := readVmHWM(strings.NewReader("Name:\tx\nVmRSS:\t 10 kB\n")); err == nil {
		t.Error("status without VmHWM: want an error")
	}
	if _, err := readVmHWM(strings.NewReader("VmHWM:\t 10 MB\n")); err == nil {
		t.Error("VmHWM in an unknown unit: want an error")
	}
	if kb, err := peakRSSKiB(os.Getpid()); err != nil || kb <= 0 {
		t.Errorf("peakRSSKiB(self) = %d, %v; want a positive size", kb, err)
	}
}
