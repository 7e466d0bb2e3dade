package trace

import "fmt"

// Fanout fans one decoded record stream out to several lockstep consumers.
//
// A parameter sweep runs the same trace through N nearby machine
// configurations; streamed serially, the frontend work — synthetic-trace
// generation or file decode — repeats N times for byte-identical records.
// A Fanout performs that work once: records are pulled from the master
// source into a bounded ring buffer, and each consumer reads the ring
// through its own Cursor. The ring recycles a slot only after the slowest
// open cursor has consumed it, so a fast consumer is back-pressured by the
// batch's laggard instead of forcing unbounded buffering: the ring's
// capacity is the hard bound on how far any two members of a batch may
// drift apart in the trace.
//
// A Fanout is deliberately single-goroutine: the lockstep batch driver
// (internal/core) advances every consumer from one loop, so the ring needs
// no locks and a Cursor costs one bounds check and one copy per record —
// the same cost profile as reading a SliceSource. It is NOT safe for
// concurrent use.
type Fanout struct {
	src    Source
	buf    []Record
	mask   int64
	filled int64 // absolute count of records pulled from src
	eof    bool

	cursors []Cursor

	streamed uint64 // records pulled from the master (frontend work done)
	served   uint64 // records handed to cursors (frontend work amortized)
}

// NewFanout builds a fanout over src with the given ring depth (rounded up
// to a power of two, minimum 64) and consumer count. Consumers must be >= 1.
func NewFanout(src Source, depth, consumers int) *Fanout {
	if consumers < 1 {
		panic("trace: fanout needs at least one consumer")
	}
	cap := 64
	for cap < depth {
		cap <<= 1
	}
	f := &Fanout{
		src:     src,
		buf:     make([]Record, cap),
		mask:    int64(cap - 1),
		cursors: make([]Cursor, consumers),
	}
	for i := range f.cursors {
		f.cursors[i].f = f
	}
	return f
}

// Cursor returns consumer i's read handle. Each consumer owns exactly one
// cursor; calling Cursor twice for the same index returns the same handle.
func (f *Fanout) Cursor(i int) *Cursor { return &f.cursors[i] }

// EOF reports whether the master source is exhausted. Cursors with
// buffered records keep serving them; once a cursor catches up, its Next
// reports end-of-stream.
func (f *Fanout) EOF() bool { return f.eof }

// Streamed returns the records pulled from the master source so far.
func (f *Fanout) Streamed() uint64 { return f.streamed }

// Served returns the records delivered to cursors so far. With N consumers
// reading the whole stream, Served approaches N x Streamed; the difference
// Served - Streamed is the frontend work the fanout avoided.
func (f *Fanout) Served() uint64 { return f.served }

// minPos returns the smallest position among open cursors, or filled when
// every cursor is closed (the whole ring is then recyclable).
func (f *Fanout) minPos() int64 {
	min := f.filled
	for i := range f.cursors {
		if c := &f.cursors[i]; !c.closed && c.pos < min {
			min = c.pos
		}
	}
	return min
}

// Fill pulls records from the master until the ring is full or the master
// is exhausted. The batch driver calls it once per lockstep round; Cursor.
// Next also pulls on demand, so Fill is a batching optimization, not a
// correctness requirement.
func (f *Fanout) Fill() {
	if f.eof {
		return
	}
	room := int64(len(f.buf)) - (f.filled - f.minPos())
	for ; room > 0; room-- {
		if !f.src.Next(&f.buf[f.filled&f.mask]) {
			f.eof = true
			return
		}
		f.filled++
		f.streamed++
	}
}

// Cursor is one consumer's view of a Fanout. It implements Source: Next
// returns false only at the true end of the master stream, exactly like
// reading the master directly.
type Cursor struct {
	f      *Fanout
	pos    int64
	closed bool
}

// Buffered returns the records available to this cursor without touching
// the master source.
func (c *Cursor) Buffered() int { return int(c.f.filled - c.pos) }

// Starved reports that the cursor cannot safely serve need records: the
// master is not exhausted, fewer than need records are buffered, and the
// ring has no room to pull more because a slower open cursor pins it. The
// lockstep driver skips a starved member for the round; ticking it anyway
// would overrun the ring (Next panics rather than mis-reporting
// end-of-trace, which would silently corrupt the member's timing).
func (c *Cursor) Starved(need int) bool {
	f := c.f
	if f.eof || c.Buffered() >= need {
		return false
	}
	room := int64(len(f.buf)) - (f.filled - f.minPos())
	return c.Buffered()+int(room) < need
}

// Next implements Source. Buffered records are served directly; at the
// buffer's edge the cursor pulls from the master itself when the ring has
// room. False means the master stream is exhausted — never "try again".
func (c *Cursor) Next(r *Record) bool {
	f := c.f
	if c.pos == f.filled {
		if f.eof {
			return false
		}
		if f.filled-f.minPos() >= int64(len(f.buf)) {
			// The driver ticked a consumer past the back-pressure bound.
			// Returning false here would make the consumer believe the
			// trace ended — a silent wrong result — so fail loudly.
			panic(fmt.Sprintf("trace: fanout ring overrun (depth %d): consumer ticked while starved", len(f.buf)))
		}
		if !f.src.Next(&f.buf[f.filled&f.mask]) {
			f.eof = true
			return false
		}
		f.filled++
		f.streamed++
	}
	*r = f.buf[c.pos&f.mask]
	c.pos++
	f.served++
	return true
}

// Close marks the cursor done: it stops holding back the ring, so the
// remaining consumers can stream ahead. The batch driver closes a member's
// cursors when the member finishes, is cancelled, hits its cycle cap, or
// is served from the run cache — and more than one of those paths can fire
// for the same member, so Close is idempotent: closing an already-closed
// cursor is a no-op and never disturbs the ring or the other cursors.
func (c *Cursor) Close() { c.closed = true }
