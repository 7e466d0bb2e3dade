package trace

import (
	"testing"

	"sparc64v/internal/isa"
)

func fanoutRecs(n int) []Record {
	recs := make([]Record, n)
	for i := range recs {
		recs[i] = Record{PC: uint64(0x1000 + 4*i), Op: isa.IntALU, Dst: uint8(i % 8)}
	}
	return recs
}

// Every cursor must see the exact master stream, regardless of interleaving.
func TestFanoutAllCursorsSeeFullStream(t *testing.T) {
	const n, consumers = 1000, 3
	recs := fanoutRecs(n)
	f := NewFanout(NewSliceSource(recs), 64, consumers)

	got := make([][]Record, consumers)
	// Interleave reads with deliberately unequal strides so cursors drift
	// apart up to the ring bound.
	strides := []int{1, 7, 31}
	var r Record
	for done := 0; done < consumers; {
		done = 0
		for i := 0; i < consumers; i++ {
			c := f.Cursor(i)
			for k := 0; k < strides[i]; k++ {
				if c.Starved(1) {
					break
				}
				if !c.Next(&r) {
					break
				}
				got[i] = append(got[i], r)
			}
			if len(got[i]) == n {
				done++
			}
		}
	}
	for i := 0; i < consumers; i++ {
		if len(got[i]) != n {
			t.Fatalf("cursor %d saw %d records, want %d", i, len(got[i]), n)
		}
		for k := range got[i] {
			if got[i][k] != recs[k] {
				t.Fatalf("cursor %d record %d = %+v, want %+v", i, k, got[i][k], recs[k])
			}
		}
		// Exhausted master: one more Next must report end-of-stream.
		if f.Cursor(i).Next(&r) {
			t.Fatalf("cursor %d yielded a record past the end", i)
		}
	}
	if f.Streamed() != n {
		t.Fatalf("Streamed() = %d, want %d (master read exactly once)", f.Streamed(), n)
	}
	if f.Served() != n*consumers {
		t.Fatalf("Served() = %d, want %d", f.Served(), n*consumers)
	}
}

// A fast cursor must stall (Starved) at the ring bound while a slow open
// cursor pins the tail, and resume once the slow cursor advances or closes.
func TestFanoutBackPressure(t *testing.T) {
	recs := fanoutRecs(500)
	f := NewFanout(NewSliceSource(recs), 64, 2)
	depth := len(f.buf)

	fast, slow := f.Cursor(0), f.Cursor(1)
	var r Record
	for i := 0; i < depth; i++ {
		if fast.Starved(1) {
			t.Fatalf("fast cursor starved at %d, depth %d", i, depth)
		}
		if !fast.Next(&r) {
			t.Fatalf("fast cursor ended at %d", i)
		}
	}
	if !fast.Starved(1) {
		t.Fatal("fast cursor not starved with ring full and slow cursor at 0")
	}
	// Drain the slow cursor one record: exactly one slot frees up.
	if !slow.Next(&r) {
		t.Fatal("slow cursor ended immediately")
	}
	if fast.Starved(1) {
		t.Fatal("fast cursor still starved after slow advanced")
	}
	if !fast.Next(&r) || r != recs[depth] {
		t.Fatalf("fast cursor resumed with %+v, want %+v", r, recs[depth])
	}
	// Closing the slow cursor releases the ring entirely.
	slow.Close()
	for i := depth + 1; i < len(recs); i++ {
		if fast.Starved(1) {
			t.Fatalf("fast cursor starved at %d after slow closed", i)
		}
		if !fast.Next(&r) {
			t.Fatalf("fast cursor ended at %d", i)
		}
	}
	if fast.Next(&r) {
		t.Fatal("fast cursor yielded a record past the end")
	}
}

// Overrunning the back-pressure bound must panic loudly, not silently
// report end-of-stream (which would corrupt the overrunning member's
// timing without any visible failure).
func TestFanoutOverrunPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Next past the back-pressure bound did not panic")
		}
	}()
	f := NewFanout(NewSliceSource(fanoutRecs(500)), 64, 2)
	c := f.Cursor(0)
	var r Record
	for i := 0; i <= len(f.buf); i++ { // one past the bound; cursor 1 pins pos 0
		c.Next(&r)
	}
}

// Starved must account for room the ring could still pull into.
func TestFanoutStarvedCountsRoom(t *testing.T) {
	f := NewFanout(NewSliceSource(fanoutRecs(200)), 64, 2)
	c := f.Cursor(0)
	// Nothing buffered yet, but the whole ring is available to pull into.
	if c.Starved(len(f.buf)) {
		t.Fatal("cursor starved with an empty ring and live master")
	}
	if c.Starved(1) {
		t.Fatal("cursor starved with a live master")
	}
	// Once the master is exhausted, Starved is always false: Next will
	// correctly report end-of-stream rather than deadlock.
	g := NewFanout(NewSliceSource(fanoutRecs(10)), 64, 1)
	g.Fill()
	var r Record
	for g.Cursor(0).Next(&r) {
	}
	if g.Cursor(0).Starved(1) {
		t.Fatal("cursor starved at end of stream")
	}
}

// Fill is an optimization: pre-filling must not change what cursors see.
func TestFanoutFillMatchesOnDemand(t *testing.T) {
	recs := fanoutRecs(300)
	f := NewFanout(NewSliceSource(recs), 32, 1)
	var got []Record
	var r Record
	for {
		f.Fill()
		if !f.Cursor(0).Next(&r) {
			break
		}
		got = append(got, r)
	}
	if len(got) != len(recs) {
		t.Fatalf("saw %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		if got[i] != recs[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], recs[i])
		}
	}
}

// Buffered reflects exactly the unread pulled records for each cursor.
func TestFanoutBuffered(t *testing.T) {
	f := NewFanout(NewSliceSource(fanoutRecs(100)), 64, 2)
	f.Fill()
	depth := len(f.buf)
	if got := f.Cursor(0).Buffered(); got != depth {
		t.Fatalf("Buffered() = %d after Fill, want %d", got, depth)
	}
	var r Record
	for i := 0; i < 10; i++ {
		f.Cursor(0).Next(&r)
	}
	if got := f.Cursor(0).Buffered(); got != depth-10 {
		t.Fatalf("Buffered() = %d after 10 reads, want %d", got, depth-10)
	}
	if got := f.Cursor(1).Buffered(); got != depth {
		t.Fatalf("cursor 1 Buffered() = %d, want %d", got, depth)
	}
}

func TestFanoutDepthRounding(t *testing.T) {
	for _, tc := range []struct{ depth, want int }{
		{0, 64}, {1, 64}, {64, 64}, {65, 128}, {1000, 1024},
	} {
		if got := len(NewFanout(NewSliceSource(nil), tc.depth, 1).buf); got != tc.want {
			t.Errorf("NewFanout depth %d -> %d, want %d", tc.depth, got, tc.want)
		}
	}
}

// Close is idempotent: the batch driver can reach a member's cursors
// through more than one teardown path (normal finish, cancellation, cycle
// cap, cache hit), so closing twice must be a no-op — the ring keeps
// streaming for the survivors and the stream they see is unchanged.
func TestFanoutDoubleClose(t *testing.T) {
	recs := fanoutRecs(300)
	f := NewFanout(NewSliceSource(recs), 64, 2)
	quitter, survivor := f.Cursor(0), f.Cursor(1)

	var r Record
	for i := 0; i < 10; i++ {
		if !quitter.Next(&r) {
			t.Fatalf("quitter ended at %d", i)
		}
	}
	quitter.Close()
	quitter.Close() // second close: must change nothing
	for i := 0; i < len(recs); i++ {
		if survivor.Starved(1) {
			t.Fatalf("survivor starved at %d after double close", i)
		}
		if !survivor.Next(&r) {
			t.Fatalf("survivor ended at %d", i)
		}
		if r != recs[i] {
			t.Fatalf("survivor record %d = %+v, want %+v", i, r, recs[i])
		}
	}
	if survivor.Next(&r) {
		t.Fatal("survivor yielded a record past the end")
	}
	// Closing the last open cursor twice is equally harmless.
	survivor.Close()
	survivor.Close()
	if f.Streamed() != uint64(len(recs)) {
		t.Fatalf("Streamed() = %d, want %d", f.Streamed(), len(recs))
	}
}
