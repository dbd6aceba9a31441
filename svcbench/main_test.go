package main

import (
	"errors"
	"testing"
	"time"
)

func TestPairedDeltaMatchesRequestsByID(t *testing.T) {
	at := func(id string, ms int, err error) sample {
		due := time.Unix(0, 0)
		return sample{req: request{id: id}, due: due, done: due.Add(time.Duration(ms) * time.Millisecond), err: err}
	}
	plain := []sample{at("a", 100, nil), at("b", 500, nil), at("c", 300, nil), at("d", 50, errors.New("refused"))}
	traced := []sample{at("b", 520, nil), at("a", 103, nil), at("c", 1, errors.New("timeout")), at("d", 60, nil), at("e", 9, nil)}
	got := pairedDelta(plain, traced)
	if len(got) != 2 || got[0] != 20 || got[1] != 3 {
		t.Errorf("pairedDelta = %v, want [20 3]: only requests that succeeded in both passes pair up", got)
	}
}
