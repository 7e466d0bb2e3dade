package trace

import (
	"bytes"
	"io"
	"reflect"
	"runtime"
	"testing"
	"time"

	"sparc64v/internal/isa"
)

// countSource yields records 0..n-1 (PC = 4i), then false, and records how
// many times Next was called.
type countSource struct {
	n, calls int
}

func (c *countSource) Next(r *Record) bool {
	c.calls++
	if c.calls > c.n {
		return false
	}
	*r = Record{PC: uint64(4 * (c.calls - 1)), Op: isa.IntALU, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	return true
}

// settleGoroutines waits for the goroutine count to fall back to want.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d: a read-ahead outlived Close", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestReadAheadStreamIdentical reads streams whose lengths straddle the
// block size through a ReadAhead: the records are the source's, in order,
// and the read-ahead stops at the source's first false, never asking it
// again.
func TestReadAheadStreamIdentical(t *testing.T) {
	for _, n := range []int{0, 1, readAheadBlockLen - 1, readAheadBlockLen, readAheadBlockLen + 1,
		readAheadBlocks * readAheadBlockLen, 5*readAheadBlockLen + 7} {
		src := &countSource{n: n}
		ra := NewReadAhead(src)
		var r Record
		got := 0
		for ra.Next(&r) {
			if r.PC != uint64(4*got) {
				t.Fatalf("n=%d: record %d has PC %#x", n, got, r.PC)
			}
			got++
		}
		if got != n {
			t.Fatalf("n=%d: read %d records", n, got)
		}
		if ra.Next(&r) {
			t.Fatalf("n=%d: Next true after the end", n)
		}
		ra.Close()
		if src.calls != n+1 {
			t.Fatalf("n=%d: source asked %d times, want %d", n, src.calls, n+1)
		}
	}
}

// TestReadAheadMatchesReader replays a trace file through a ReadAhead over
// its Reader: the same records as reading the Reader directly.
func TestReadAheadMatchesReader(t *testing.T) {
	full, _ := buildTestTrace(t, 3*readAheadBlockLen+5)
	direct, derr := decodeAll(full, func(r io.Reader) io.Reader { return r }, false)
	rd, err := NewReader(bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReadAhead(rd)
	got := Collect(ra, 0)
	ra.Close()
	if errString(rd.Err()) != derr || !reflect.DeepEqual(got, direct) {
		t.Fatalf("read-ahead gave %d records (err %v), direct %d (err %s)", len(got), rd.Err(), len(direct), derr)
	}
}

// TestReadAheadCloseJoins closes read-aheads early — before any read, mid
// block, and over an endless source — and twice: no goroutine survives.
func TestReadAheadCloseJoins(t *testing.T) {
	base := runtime.NumGoroutine()
	endless := &countSource{n: 1 << 62}
	var r Record
	for _, reads := range []int{0, 1, readAheadBlockLen + 3} {
		ra := NewReadAhead(endless)
		for i := 0; i < reads; i++ {
			if !ra.Next(&r) {
				t.Fatalf("endless source ended after %d records", i)
			}
		}
		ra.Close()
		ra.Close()
		if ra.Next(&r) {
			t.Fatal("Next true after Close")
		}
	}
	settleGoroutines(t, base)
}

type panicSource struct{ after int }

func (p *panicSource) Next(r *Record) bool {
	if p.after == 0 {
		panic("source broke")
	}
	p.after--
	*r = Record{Op: isa.Nop, Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	return true
}

// TestReadAheadPanicReachesConsumer: a panic in the wrapped source is
// raised, with its value, by the consumer's Next once the records before it
// are read, and the read-ahead goroutine is gone. A panic the consumer never
// reaches is dropped by Close.
func TestReadAheadPanicReachesConsumer(t *testing.T) {
	base := runtime.NumGoroutine()
	const after = readAheadBlockLen + 10
	ra := NewReadAhead(&panicSource{after: after})
	var r Record
	got := 0
	v := func() (v any) {
		defer func() { v = recover() }()
		for ra.Next(&r) {
			got++
		}
		return nil
	}()
	if v != "source broke" || got != after {
		t.Fatalf("recovered %v after %d records, want the source's panic after %d", v, got, after)
	}
	ra.Close()

	unread := NewReadAhead(&panicSource{after: 3})
	unread.Next(&r)
	unread.Close()
	settleGoroutines(t, base)
}
