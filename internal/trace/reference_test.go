package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"

	"sparc64v/internal/isa"
)

// refReader is the byte-at-a-time decoder Reader replaced: every field is
// read through a bufio.Reader's ReadByte and binary.ReadVarint. It is kept
// here as the differential reference for Reader's slice parser.
type refReader struct {
	r      *bufio.Reader
	prevPC uint64
	prevEA uint64
	err    error
	verify func() error
}

func newRefReader(r io.Reader) (*refReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(hdr) != Magic {
		return nil, ErrBadMagic
	}
	if _, err := binary.ReadUvarint(br); err != nil {
		return nil, fmt.Errorf("trace: reading header count: %w", err)
	}
	return &refReader{r: br}, nil
}

func openRefReader(r io.Reader) (*refReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(2)
	if err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		rd, err := newRefReader(gz)
		if err != nil {
			return nil, err
		}
		rd.verify = func() error {
			var b [1]byte
			if _, err := gz.Read(b[:]); err != io.EOF {
				if err == nil {
					err = errors.New("data past end of records")
				}
				return fmt.Errorf("trace: gzip stream: %w", err)
			}
			if err := gz.Close(); err != nil {
				return fmt.Errorf("trace: gzip stream: %w", err)
			}
			return nil
		}
		return rd, nil
	}
	return newRefReader(br)
}

func (rd *refReader) Next(r *Record) bool {
	if rd.err != nil {
		return false
	}
	flags, err := rd.r.ReadByte()
	if err != nil {
		if err != io.EOF {
			rd.err = err
		} else if rd.verify != nil {
			if verr := rd.verify(); verr != nil {
				rd.err = verr
			}
			rd.verify = nil
		}
		return false
	}
	op, err := rd.r.ReadByte()
	if err != nil {
		rd.err = fmt.Errorf("trace: truncated record: %w", err)
		return false
	}
	*r = Record{Op: isa.Class(op), Dst: isa.RegNone, Src1: isa.RegNone, Src2: isa.RegNone}
	r.Taken = flags&flagTaken != 0
	for _, f := range []struct {
		mask byte
		dst  *uint8
	}{{flagHasDst, &r.Dst}, {flagHasSrc1, &r.Src1}, {flagHasSrc2, &r.Src2}} {
		if flags&f.mask != 0 {
			b, err := rd.r.ReadByte()
			if err != nil {
				rd.err = fmt.Errorf("trace: truncated record: %w", err)
				return false
			}
			*f.dst = b
		}
	}
	d, err := binary.ReadVarint(rd.r)
	if err != nil {
		rd.err = fmt.Errorf("trace: truncated record: %w", err)
		return false
	}
	rd.prevPC += uint64(d)
	r.PC = rd.prevPC
	if flags&flagHasEA != 0 {
		d, err = binary.ReadVarint(rd.r)
		if err != nil {
			rd.err = fmt.Errorf("trace: truncated record: %w", err)
			return false
		}
		rd.prevEA += uint64(d)
		r.EA = rd.prevEA
		if r.Op.IsMemory() {
			sz, err := rd.r.ReadByte()
			if err != nil {
				rd.err = fmt.Errorf("trace: truncated record: %w", err)
				return false
			}
			r.Size = sz
		}
	}
	if verr := r.Validate(); verr != nil {
		rd.err = verr
		return false
	}
	return true
}

// errString renders an error for comparison; nil reads as "<nil>".
func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// decodeAll opens data with NewReader, or OpenReader when gz, and drains
// it: the records, then the open error or the reader's final error.
func decodeAll(data []byte, wrap func(io.Reader) io.Reader, gz bool) ([]Record, string) {
	var recs []Record
	var r Record
	open := NewReader
	if gz {
		open = OpenReader
	}
	rd, err := open(wrap(bytes.NewReader(data)))
	if err != nil {
		return nil, "open: " + err.Error()
	}
	for rd.Next(&r) {
		recs = append(recs, r)
	}
	return recs, errString(rd.Err())
}

// refDecodeAll is decodeAll through the reference decoder.
func refDecodeAll(data []byte, wrap func(io.Reader) io.Reader, gz bool) ([]Record, string) {
	var recs []Record
	var r Record
	open := newRefReader
	if gz {
		open = openRefReader
	}
	rd, err := open(wrap(bytes.NewReader(data)))
	if err != nil {
		return nil, "open: " + err.Error()
	}
	for rd.Next(&r) {
		recs = append(recs, r)
	}
	return recs, errString(rd.err)
}

// errAfter serves data and then fails with err, however it is read.
type errAfter struct {
	data []byte
	err  error
}

func (e *errAfter) Read(p []byte) (int, error) {
	if len(e.data) == 0 {
		return 0, e.err
	}
	n := copy(p, e.data)
	e.data = e.data[n:]
	return n, nil
}

// wraps are the ways a stream is handed to both decoders: whole, one byte
// per Read, with the last bytes and io.EOF together, and cut off by a
// non-EOF error partway through.
var wraps = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"plain", func(r io.Reader) io.Reader { return r }},
	{"onebyte", iotest.OneByteReader},
	{"dataerr", iotest.DataErrReader},
	{"failing", func(r io.Reader) io.Reader {
		b, _ := io.ReadAll(r)
		return &errAfter{data: b[:len(b)*2/3], err: errors.New("disk gone")}
	}},
}

// checkSame decodes data with Reader and with the reference, under every
// wrap, and fails unless both yield the same records and end in the same
// error.
func checkSame(t *testing.T, what string, data []byte, gz bool) {
	t.Helper()
	for _, w := range wraps {
		got, gotErr := decodeAll(data, w.wrap, gz)
		want, wantErr := refDecodeAll(data, w.wrap, gz)
		if gotErr != wantErr {
			t.Fatalf("%s (%s): error %q, reference %q", what, w.name, gotErr, wantErr)
		}
		if len(got) != len(want) {
			t.Fatalf("%s (%s): %d records, reference %d (error %q)", what, w.name, len(got), len(want), gotErr)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s (%s): record %d = %+v, reference %+v", what, w.name, i, got[i], want[i])
			}
		}
	}
}

func gzipBytes(b []byte) []byte {
	var z bytes.Buffer
	gz := gzip.NewWriter(&z)
	gz.Write(b)
	gz.Close()
	return z.Bytes()
}

// TestReaderMatchesReference is the differential test of Reader against
// the byte-at-a-time decoder it replaced: round-trip streams, the stream
// cut at every offset, single bit flips, and hand-made malformed varints,
// raw and gzip-compressed, each read whole, a byte at a time, with data
// and EOF together, and cut off by a read error. Both must yield the same
// records and end in the same error.
func TestReaderMatchesReference(t *testing.T) {
	full, _ := buildTestTrace(t, 40)
	checkSame(t, "intact", full, false)
	checkSame(t, "intact gzip", gzipBytes(full), true)

	// A stream longer than Reader's window, so refills happen mid-record.
	rng := rand.New(rand.NewSource(3))
	var long bytes.Buffer
	w, _ := NewWriterCount(&long, 300)
	for i := 0; i < 6000; i++ {
		r := randRecord(rng)
		w.Write(&r)
	}
	w.Flush()
	checkSame(t, "long", long.Bytes(), false)
	checkSame(t, "long gzip", gzipBytes(long.Bytes()), true)

	for cut := 0; cut <= len(full); cut++ {
		checkSame(t, fmt.Sprintf("cut %d", cut), full[:cut], false)
	}
	zb := gzipBytes(full)
	for cut := 0; cut <= len(zb); cut++ {
		checkSame(t, fmt.Sprintf("gzip cut %d", cut), zb[:cut], true)
	}
	for bit := 0; bit < 8*len(full); bit++ {
		mut := bytes.Clone(full)
		mut[bit/8] ^= 1 << (bit % 8)
		checkSame(t, fmt.Sprintf("flip bit %d", bit), mut, false)
	}
	for bit := 0; bit < 8*len(zb); bit += 3 {
		mut := bytes.Clone(zb)
		mut[bit/8] ^= 1 << (bit % 8)
		checkSame(t, fmt.Sprintf("gzip flip bit %d", bit), mut, true)
	}
	// Data past the end of the records, inside the gzip stream and after it.
	checkSame(t, "gzip trailing junk", append(bytes.Clone(zb), 0, 1, 2), true)
	checkSame(t, "gzip two members", append(bytes.Clone(zb), zb...), true)

	// Varints at and past 64 bits, in the header and in both deltas, whole
	// and cut.
	hdr := []byte(Magic)
	over := bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)
	tenth := append(bytes.Repeat([]byte{0x80}, binary.MaxVarintLen64-1), 0x02)
	maxOK := append(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64-1), 0x01)
	rec := func(flags, op byte, tail ...[]byte) []byte {
		b := append(append([]byte{}, hdr...), 0, flags, op)
		for _, t := range tail {
			b = append(b, t...)
		}
		return b
	}
	for _, v := range [][]byte{over, tenth, maxOK} {
		cases := [][]byte{
			append(append([]byte{}, hdr...), v...),
			rec(0, byte(isa.IntALU), v),
			rec(flagHasEA, byte(isa.Load), []byte{8}, v, []byte{4}),
			rec(flagHasEA|flagTaken, byte(isa.Branch), []byte{8}, v),
		}
		for i, c := range cases {
			for cut := len(hdr); cut <= len(c); cut++ {
				checkSame(t, fmt.Sprintf("varint % x case %d cut %d", v[len(v)-1], i, cut), c[:cut], false)
			}
		}
	}
}
