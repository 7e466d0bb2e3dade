package trace

// Read-ahead sizing: see the per-source buffer budget in io.go. Three
// blocks let the decoder fill one while the consumer reads another and a
// third waits between them.
const (
	readAheadBlocks   = 3
	readAheadBlockLen = 512
)

// ReadAhead decodes another Source on a goroutine of its own, ahead of its
// consumer. The paper's model is trace-driven, and decoding a record (gzip
// inflate plus parse, or synthetic generation) costs the simulation thread
// a sizeable share of its time; behind a ReadAhead that work overlaps the
// timing model on another core.
//
// The goroutine fills fixed-size record blocks that cycle between it and
// the consumer, so a ReadAhead allocates nothing after it is built; Next
// copies records out of the current block. The consumer sees exactly the
// records a sequential read of the wrapped source gives: the goroutine
// stops at the source's first false. A panic inside the wrapped source is
// recovered on the goroutine and raised again, with the same value, by the
// Next call that reaches it, so whatever guards the consumer (sched's
// panic isolation) guards the source too.
//
// Close stops the goroutine and waits for it; the owner must call it once
// the records are no longer wanted, and only after Close may the wrapped
// source be inspected again (a Reader's Err, say). Like every Source, a
// ReadAhead has a single consumer: Next and Close are called from one
// goroutine.
type ReadAhead struct {
	src  Source
	cur  []Record // the block being read; cur[pos:] is unread
	pos  int
	full chan []Record // filled blocks, in stream order; closed when the goroutine ends
	free chan []Record // blocks the consumer has finished with
	stop chan struct{}
	// panicked is the wrapped source's panic value, written by the
	// goroutine before it closes full.
	panicked any
	closed   bool
}

// NewReadAhead starts decoding src ahead of the consumer.
func NewReadAhead(src Source) *ReadAhead {
	a := &ReadAhead{
		src:  src,
		full: make(chan []Record, readAheadBlocks),
		free: make(chan []Record, readAheadBlocks),
		stop: make(chan struct{}),
	}
	recs := make([]Record, readAheadBlocks*readAheadBlockLen)
	for i := 0; i < readAheadBlocks; i++ {
		a.free <- recs[i*readAheadBlockLen : (i+1)*readAheadBlockLen : (i+1)*readAheadBlockLen]
	}
	go a.run()
	return a
}

// run is the read-ahead goroutine: it fills free blocks from the source
// until the source ends, panics, or Close stops it.
func (a *ReadAhead) run() {
	defer close(a.full)
	for {
		var blk []Record
		select {
		case <-a.stop:
			return
		case blk = <-a.free:
		}
		n, more := a.fill(blk)
		if n > 0 {
			select {
			case <-a.stop:
				return
			case a.full <- blk[:n]:
			}
		}
		if !more {
			return
		}
	}
}

// fill reads records into blk until it is full (more is true) or the
// source ends or panics (more is false; a panic is kept in a.panicked).
func (a *ReadAhead) fill(blk []Record) (n int, more bool) {
	defer func() {
		if v := recover(); v != nil {
			a.panicked, more = v, false
		}
	}()
	for n < len(blk) {
		if !a.src.Next(&blk[n]) {
			return n, false
		}
		n++
	}
	return n, true
}

// Next implements Source.
func (a *ReadAhead) Next(r *Record) bool {
	if a.pos == len(a.cur) && !a.advance() {
		return false
	}
	*r = a.cur[a.pos]
	a.pos++
	return true
}

// advance hands the finished block back to the goroutine and waits for the
// next one. It reports false at the end of the stream, or after Close, and
// raises the source's panic once the records before it are consumed.
func (a *ReadAhead) advance() bool {
	if a.cur != nil {
		a.free <- a.cur[:cap(a.cur)]
		a.cur, a.pos = nil, 0
	}
	if a.closed {
		return false
	}
	blk, ok := <-a.full
	if !ok {
		if a.panicked != nil {
			panic(a.panicked)
		}
		return false
	}
	a.cur = blk
	return true
}

// Close stops the read-ahead goroutine and waits until it has exited.
// Records decoded but not consumed are dropped, and so is a panic the
// consumer never reached. Close is idempotent.
func (a *ReadAhead) Close() {
	if a.closed {
		return
	}
	a.closed = true
	close(a.stop)
	for range a.full {
	}
	a.cur, a.pos = nil, 0
}
