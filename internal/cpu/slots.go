package cpu

import "math/bits"

// slotSet is a set of window entries, one bit per window slot. In-flight
// sequence numbers map one-to-one onto slots (seq & winMask), so a slot
// names an entry, and oldest/youngest recover age order across the
// window's wrap-around for any window size.
type slotSet []uint64

func (s slotSet) add(slot uint64)    { s[slot>>6] |= 1 << (slot & 63) }
func (s slotSet) remove(slot uint64) { s[slot>>6] &^= 1 << (slot & 63) }

// oldest returns the oldest member of s with sequence number from or
// later. Members are in-flight entries, so the search covers [from, tail):
// it reads one word at a time from from's slot upward, wrapping past the
// end of the slot array, and stops at the first word with a member.
func (c *CPU) oldest(s slotSet, from uint64) (uint64, bool) {
	if c.winMask == 63 {
		// The 64-entry window: rotating from's slot to bit 0 puts the
		// whole window in age order in one read. It saves a second read
		// whenever [from, tail) wraps, and runs core/BenchmarkFullRun
		// 4-9% faster than the word walk below.
		w := bits.RotateLeft64(s[0], -int(from&63))
		if i := uint64(bits.TrailingZeros64(w)); i < c.tail-from {
			return from + i, true
		}
		return 0, false
	}
	for seq := from; seq < c.tail; {
		slot := seq & c.winMask
		if w := s[slot>>6] >> (slot & 63); w != 0 {
			if seq += uint64(bits.TrailingZeros64(w)); seq < c.tail {
				return seq, true
			}
			return 0, false
		}
		seq += min(c.winMask+1, 64) - slot&63 // to the next word or slot 0
	}
	return 0, false
}

// youngest returns the youngest member of s older than before, searching
// [head, before) from before's slot downward the same way.
func (c *CPU) youngest(s slotSet, before uint64) (uint64, bool) {
	if before <= c.head {
		return 0, false
	}
	n := before - c.head
	for slot, off := (before-1)&c.winMask, uint64(0); off < n; {
		if w := s[slot>>6] << (63 - slot&63); w != 0 {
			if i := off + uint64(bits.LeadingZeros64(w)); i < n {
				return before - 1 - i, true
			}
			return 0, false
		}
		step := slot&63 + 1
		off += step
		slot = (slot - step) & c.winMask
	}
	return 0, false
}

// timer files a waiting entry into its station's ready set at cycle at.
type timer struct{ at, seq uint64 }

// timerHeap is a binary min-heap of timers on at.
type timerHeap []timer

func (h *timerHeap) push(t timer) {
	*h = append(*h, t)
	q := *h
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
}

func (h *timerHeap) pop() timer {
	q := *h
	t := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if r := l + 1; r < n && q[r].at < q[l].at {
			l = r
		}
		if q[i].at <= q[l].at {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	*h = q
	return t
}
