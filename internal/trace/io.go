package trace

import (
	"bufio"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"sparc64v/internal/isa"
)

// Binary trace format.
//
// Traces compress extremely well with delta encoding because instruction
// addresses are sequential most of the time and effective addresses are
// frequently strided. The on-disk format is:
//
//	header:  magic "S64VTRC1" | uvarint(recordCount, 0 = unknown)
//	record:  flags byte | op byte | regs | varint(pcDelta) | [varint(eaDelta) size?]
//
// pcDelta is the signed difference from the previous record's PC (the first
// record is a delta from zero); eaDelta likewise chains from the previous
// record's EA. Register bytes are only present when the flags say so.

// Magic identifies a sparc64v trace file.
const Magic = "S64VTRC1"

const (
	flagTaken   = 1 << 0
	flagHasDst  = 1 << 1
	flagHasSrc1 = 1 << 2
	flagHasSrc2 = 1 << 3
	flagHasEA   = 1 << 4
)

// ErrBadMagic is returned when a trace stream does not start with Magic.
var ErrBadMagic = errors.New("trace: bad magic (not a sparc64v trace)")

// Writer encodes records to an underlying io.Writer. Call Flush when done.
type Writer struct {
	w      *bufio.Writer
	prevPC uint64
	prevEA uint64
	count  uint64
	buf    [2 * binary.MaxVarintLen64]byte
}

// NewWriter writes the trace header and returns a Writer. The record count
// written in the header is 0 ("unknown"); readers discover the end by EOF.
func NewWriter(w io.Writer) (*Writer, error) {
	return NewWriterCount(w, 0)
}

// NewWriterCount writes the trace header with a known record count
// (0 = unknown) and returns a Writer. The count is advisory: the stream
// still ends at EOF, and NewReader checks that the count is a well-formed
// varint but does not use it.
func NewWriterCount(w io.Writer, count uint64) (*Writer, error) {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := bw.WriteString(Magic); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], count)
	if _, err := bw.Write(buf[:n]); err != nil {
		return nil, fmt.Errorf("trace: writing header: %w", err)
	}
	return &Writer{w: bw}, nil
}

// Write encodes one record.
func (w *Writer) Write(r *Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	var flags byte
	if r.Taken {
		flags |= flagTaken
	}
	if r.Dst != isa.RegNone {
		flags |= flagHasDst
	}
	if r.Src1 != isa.RegNone {
		flags |= flagHasSrc1
	}
	if r.Src2 != isa.RegNone {
		flags |= flagHasSrc2
	}
	hasEA := r.Op.IsMemory() || (r.Op.IsBranch() && r.Taken)
	if hasEA {
		flags |= flagHasEA
	}
	if err := w.w.WriteByte(flags); err != nil {
		return err
	}
	if err := w.w.WriteByte(byte(r.Op)); err != nil {
		return err
	}
	for _, b := range []struct {
		present bool
		v       uint8
	}{{flags&flagHasDst != 0, r.Dst}, {flags&flagHasSrc1 != 0, r.Src1}, {flags&flagHasSrc2 != 0, r.Src2}} {
		if b.present {
			if err := w.w.WriteByte(b.v); err != nil {
				return err
			}
		}
	}
	n := binary.PutVarint(w.buf[:], int64(r.PC-w.prevPC))
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		return err
	}
	w.prevPC = r.PC
	if hasEA {
		n = binary.PutVarint(w.buf[:], int64(r.EA-w.prevEA))
		if _, err := w.w.Write(w.buf[:n]); err != nil {
			return err
		}
		w.prevEA = r.EA
		if r.Op.IsMemory() {
			if err := w.w.WriteByte(r.Size); err != nil {
				return err
			}
		}
	}
	w.count++
	return nil
}

// Count returns the number of records written so far.
func (w *Writer) Count() uint64 { return w.count }

// Flush flushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader decodes a trace stream produced by Writer. It implements Source.
type Reader struct {
	r      *bufio.Reader
	prevPC uint64
	prevEA uint64
	err    error
	// verify runs once at clean EOF to validate the transport framing —
	// for gzip streams, that the decompressor reached its trailer and the
	// CRC32/length checks passed. Without it a truncated .gz whose deflate
	// stream happens to end on a block boundary would read as a short but
	// apparently complete trace.
	verify func() error
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
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
	return &Reader{r: br}, nil
}

// Err returns the first decoding error encountered, if any. io.EOF at a
// record boundary is normal termination and is not reported.
func (rd *Reader) Err() error { return rd.err }

// Next implements Source.
func (rd *Reader) Next(r *Record) bool {
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

// OpenReader returns a Reader for a trace stream, transparently handling
// gzip-compressed traces (long TPC-C captures are routinely stored
// compressed). For gzip input the Reader validates the gzip trailer
// (CRC32 and uncompressed length) once the records end: a compressed
// trace that was cut short surfaces through Err() instead of silently
// reading as a shorter trace.
func OpenReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	magic, err := br.Peek(2)
	if err == nil && len(magic) == 2 && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		rd, err := NewReader(gz)
		if err != nil {
			return nil, err
		}
		rd.verify = func() error {
			// A clean io.EOF from gzip means the decompressor consumed the
			// trailer and the CRC32/ISIZE checks passed; anything else is a
			// truncated or corrupt compressed stream.
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
	return NewReader(br)
}
