package cpu

import (
	"math/rand"
	"testing"
)

// TestSlotSetAgeOrder checks oldest and youngest against a linear walk of
// the in-flight sequence numbers, across window wrap-around, for window
// sizes below, at and above one 64-bit word.
func TestSlotSetAgeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, size := range []uint64{1, 8, 64, 128, 256} {
		c := &CPU{winMask: size - 1}
		s := make(slotSet, (size+63)/64)
		for trial := 0; trial < 2000; trial++ {
			c.head = uint64(rng.Intn(1000))
			c.tail = c.head + uint64(rng.Intn(int(size)+1))
			for i := range s {
				s[i] = 0
			}
			in := map[uint64]bool{}
			for seq := c.head; seq < c.tail; seq++ {
				if rng.Intn(3) == 0 {
					s.add(seq & c.winMask)
					in[seq] = true
				}
			}
			for from := c.head; from <= c.tail; from++ {
				want, wantOK := uint64(0), false
				for seq := from; seq < c.tail; seq++ {
					if in[seq] {
						want, wantOK = seq, true
						break
					}
				}
				if got, ok := c.oldest(s, from); ok != wantOK || got != want {
					t.Fatalf("size %d [%d,%d): oldest(%d) = %d,%v; want %d,%v", size, c.head, c.tail, from, got, ok, want, wantOK)
				}
				want, wantOK = 0, false
				for seq := from; seq > c.head; seq-- {
					if in[seq-1] {
						want, wantOK = seq-1, true
						break
					}
				}
				if got, ok := c.youngest(s, from); ok != wantOK || got != want {
					t.Fatalf("size %d [%d,%d): youngest(%d) = %d,%v; want %d,%v", size, c.head, c.tail, from, got, ok, want, wantOK)
				}
			}
		}
	}
}

// TestTimerHeapOrder pops timers in nondecreasing order.
func TestTimerHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var h timerHeap
	last := uint64(0)
	for i := 0; i < 5000; i++ {
		if len(h) == 0 || rng.Intn(3) > 0 {
			h.push(timer{at: last + uint64(rng.Intn(100))})
			continue
		}
		tm := h.pop()
		if tm.at < last {
			t.Fatalf("pop %d after %d", tm.at, last)
		}
		last = tm.at
	}
}
