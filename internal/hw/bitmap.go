// Package hw models the hardware components the Occamy paper builds or
// analyzes: the over-allocation bitmap and round-robin arbiter of the
// head-drop selector (Fig 9), the fixed-priority arbiter, the binary
// comparator-tree Maximum Finder that makes classic Pushout expensive
// (Fig 4), the dequeue pipeline (Fig 10), and an analytic gate-level
// cost model reproducing Table 1.
//
// The functional models here are cycle-faithful in behaviour (what gets
// granted, in what order) and are used directly by the Occamy expulsion
// engine in internal/core; the cost models are analytic, calibrated to
// the paper's Vivado/45nm numbers (see DESIGN.md substitution table).
package hw

import "math/bits"

// Bitmap is a fixed-width bitset indexed by queue number, mirroring the
// over-allocation bitmap in the head-drop selector: bit i is set while
// queue i's length exceeds the DT threshold.
type Bitmap struct {
	n     int
	words []uint64
}

// NewBitmap returns an all-zero bitmap over n queues.
func NewBitmap(n int) *Bitmap {
	if n <= 0 {
		panic("hw: bitmap size must be positive")
	}
	return &Bitmap{n: n, words: make([]uint64, (n+63)/64)}
}

// Size returns the number of queues tracked.
func (b *Bitmap) Size() int { return b.n }

// Words exposes the bitmap as 64-bit words, queue i at bit i&63 of word
// i>>6, for whole-word scans and updates. Bits at or beyond Size must
// stay clear.
func (b *Bitmap) Words() []uint64 { return b.words }

func (b *Bitmap) check(i int) {
	if i < 0 || i >= b.n {
		panic("hw: bitmap index out of range")
	}
}

// Set marks queue i.
func (b *Bitmap) Set(i int) {
	b.check(i)
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear unmarks queue i.
func (b *Bitmap) Clear(i int) {
	b.check(i)
	b.words[i>>6] &^= 1 << (uint(i) & 63)
}

// Assign sets or clears bit i according to v — the per-cycle comparator
// output in the selector.
func (b *Bitmap) Assign(i int, v bool) {
	if v {
		b.Set(i)
	} else {
		b.Clear(i)
	}
}

// Get reports whether queue i is marked.
func (b *Bitmap) Get(i int) bool {
	b.check(i)
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Any reports whether any queue is marked.
func (b *Bitmap) Any() bool {
	for _, w := range b.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// Count returns the number of marked queues.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// NextSet returns the first marked index >= from, searching cyclically
// through all n positions. It reports false when the bitmap is empty.
func (b *Bitmap) NextSet(from int) (int, bool) {
	if from < 0 || b.n == 0 {
		return 0, false
	}
	from %= b.n
	// Search [from, n), then wrap to [0, from).
	if i, ok := b.scan(from, b.n); ok {
		return i, true
	}
	return b.scan(0, from)
}

func (b *Bitmap) scan(lo, hi int) (int, bool) {
	for i := lo >> 6; i <= (hi-1)>>6 && i < len(b.words); i++ {
		w := b.words[i]
		if w == 0 {
			continue
		}
		// Mask bits below lo in the first word and >= hi in the last.
		if i == lo>>6 {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		for w != 0 {
			bit := i<<6 + bits.TrailingZeros64(w)
			if bit >= hi {
				break
			}
			return bit, true
		}
	}
	return 0, false
}
