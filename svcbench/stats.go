package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
)

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of xs: the
// smallest sample with at least a q share of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[rankOf(len(s), q)-1]
}

// rankOf is the 1-based nearest-rank position of the q-quantile among n
// sorted samples.
func rankOf(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// tailLadder lists the percentiles a tail latency may be reported at.
var tailLadder = []float64{0.5, 0.6, 0.7, 0.75, 0.8, 0.9, 0.95, 0.98, 0.99, 0.995, 0.999}

// minBeyond is how many samples must lie strictly beyond a reported tail
// percentile: fewer, and one stray sample moves it.
const minBeyond = 10

// tailQuantile returns the highest ladder percentile, no higher than
// limit, with at least minBeyond of n samples beyond its nearest-rank
// position. ok is false when even the median has fewer beyond it; the
// median is returned then.
func tailQuantile(n int, limit float64) (q float64, ok bool) {
	q = tailLadder[0]
	for _, p := range tailLadder {
		if p > limit+1e-12 {
			break
		}
		if n > 0 && n-rankOf(n, p) >= minBeyond {
			q, ok = p, true
		}
	}
	return q, ok
}

// ratio is a/b, or 0 when b is 0 (a ratio over nothing observed).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

// readVmHWM parses a /proc/<pid>/status stream and returns its VmHWM
// field — the process's peak resident set size — in KiB.
func readVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", sc.Text())
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// peakRSSKiB reads the VmHWM of a live process.
func peakRSSKiB(pid int) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	kb, err := readVmHWM(f)
	if err != nil {
		return 0, fmt.Errorf("pid %d: %w", pid, err)
	}
	return kb, nil
}
