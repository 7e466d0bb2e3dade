package trace

import (
	"bufio"
	"bytes"
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

// Per-source buffer budget. A gzip trace costs one fileBufBytes bufio on
// the compressed side (flate reads it a byte at a time) and one
// windowBytes parse window on the decompressed side; core puts a
// ReadAhead of readAheadBlocks × readAheadBlockLen records in front of
// it. Together that is 16 + 16 + 36 KiB, about half the 128 KiB of the two
// 64 KiB bufios a Reader used to hold, so a 16-CPU replay's resident set
// does not grow with the read-ahead.
const (
	fileBufBytes = 16 << 10
	windowBytes  = 16 << 10
)

// maxRecordBytes is the longest encoded record: flags, op, three register
// bytes, two varints and the size byte. Whenever at least this much is
// buffered, a record cannot run off the end of the window.
const maxRecordBytes = 2 + 3 + 2*binary.MaxVarintLen64 + 1

// errOverflow is encoding/binary's (unexported) varint overflow error, so a
// malformed varint fails exactly as binary.ReadVarint reported it.
var errOverflow = func() error {
	_, err := binary.ReadUvarint(bytes.NewReader(bytes.Repeat([]byte{0xff}, binary.MaxVarintLen64)))
	return err
}()

// Reader decodes a trace stream produced by Writer. It implements Source.
//
// Records are parsed straight out of a byte window refilled from the
// stream, not a byte at a time through an io.ByteReader. The window is
// followed by maxRecordBytes of slack, so parsing always reads from a
// fixed-length slice and checks once per field against the bytes the
// stream actually supplied. Errors are the byte-at-a-time decoder's, record
// for record: a record cut short wraps the stream's error (io.EOF, or
// io.ErrUnexpectedEOF inside a varint), a varint longer than 64 bits is an
// error, and every record passes Validate.
type Reader struct {
	src      io.Reader
	buf      []byte // windowBytes of window, then slack; buf[pos:end] is unparsed
	pos, end int
	srcErr   error // the stream's error once it stopped (io.EOF at its end)
	prevPC   uint64
	prevEA   uint64
	err      error
	// verify runs once at clean EOF to validate the transport framing —
	// for gzip streams, that the decompressor reached its trailer and the
	// CRC32/length checks passed. Without it a truncated .gz whose deflate
	// stream happens to end on a block boundary would read as a short but
	// apparently complete trace.
	verify func() error
}

// NewReader validates the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	rd := &Reader{src: r, buf: make([]byte, windowBytes+maxRecordBytes)}
	rd.fill(len(Magic) + binary.MaxVarintLen64)
	b := rd.buf[:rd.end]
	if len(b) < len(Magic) {
		err := rd.srcErr
		if err == io.EOF && len(b) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	if string(b[:len(Magic)]) != Magic {
		return nil, ErrBadMagic
	}
	_, n := uvarint(b[len(Magic):])
	if n <= 0 {
		return nil, fmt.Errorf("trace: reading header count: %w", rd.varintErr(n, len(b) > len(Magic)))
	}
	rd.pos = len(Magic) + n
	return rd, nil
}

// fill reads from the stream until the window holds need unparsed bytes or
// the stream stops, first moving the unparsed tail to the window's front.
func (rd *Reader) fill(need int) {
	rd.end = copy(rd.buf, rd.buf[rd.pos:rd.end])
	rd.pos = 0
	for empty := 0; rd.end < need && rd.srcErr == nil; {
		n, err := rd.src.Read(rd.buf[rd.end:windowBytes])
		rd.end += n
		if err != nil {
			rd.srcErr = err
		} else if n > 0 {
			empty = 0
		} else if empty++; empty == 100 {
			rd.srcErr = io.ErrNoProgress
		}
	}
}

// uvarint decodes an unsigned varint from the front of b as
// binary.ReadUvarint reads one from a stream that ends after b: it returns
// the value and its length, 0 when b ends first, or -1 on overflow (after
// binary.MaxVarintLen64 bytes).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		if i == len(b) {
			return 0, 0
		}
		c := b[i]
		if c < 0x80 {
			if i == binary.MaxVarintLen64-1 && c > 1 {
				return 0, -1
			}
			return x | uint64(c)<<s, i + 1
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, -1
}

// varintErr is the error for a varint uvarint could not decode (n <= 0):
// the overflow, or the stream's error where it ended, io.ErrUnexpectedEOF
// when it ended after the varint's first byte.
func (rd *Reader) varintErr(n int, started bool) error {
	if n < 0 {
		return errOverflow
	}
	if started && rd.srcErr == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return rd.srcErr
}

// Err returns the first decoding error encountered, if any. io.EOF at a
// record boundary is normal termination and is not reported.
func (rd *Reader) Err() error { return rd.err }

// Next implements Source.
func (rd *Reader) Next(r *Record) bool {
	if rd.err != nil {
		return false
	}
	if rd.end-rd.pos < maxRecordBytes && rd.srcErr == nil {
		rd.fill(maxRecordBytes)
	}
	if rd.pos == rd.end {
		if rd.srcErr != io.EOF {
			rd.err = rd.srcErr
		} else if rd.verify != nil {
			rd.err = rd.verify()
			rd.verify = nil
		}
		return false
	}
	n, err := rd.parse(r)
	if err != nil {
		rd.err = err
		return false
	}
	rd.pos += n
	return true
}

// parse decodes the record at the front of the window and returns its
// length. The stream supplied avail bytes of it; fewer than maxRecordBytes
// only when they are the rest of the stream, so a record that runs past
// avail is truncated. Reading past avail stays inside the slack and only
// ever sees bytes that are then rejected.
func (rd *Reader) parse(r *Record) (int, error) {
	b := rd.buf[rd.pos : rd.pos+maxRecordBytes : rd.pos+maxRecordBytes]
	avail := rd.end - rd.pos
	if avail < 2 {
		return 0, truncated(rd.srcErr)
	}
	flags, op := b[0], isa.Class(b[1])
	// Each register byte is present when its flag is set; OR-ing an absent
	// one with 0xFF yields isa.RegNone without a branch.
	hd, h1, h2 := int(flags>>1&1), int(flags>>2&1), int(flags>>3&1)
	dst := b[2] | byte(hd-1)
	src1 := b[2+hd] | byte(h1-1)
	src2 := b[2+hd+h1] | byte(h2-1)
	i := 2 + hd + h1 + h2
	if i > avail {
		return 0, truncated(rd.srcErr)
	}
	d, n, err := rd.varint(b[i:], avail-i)
	if err != nil {
		return 0, err
	}
	i += n
	rd.prevPC += uint64(d)
	var ea uint64
	var size uint8
	if flags&flagHasEA != 0 {
		if d, n, err = rd.varint(b[i:], avail-i); err != nil {
			return 0, err
		}
		i += n
		rd.prevEA += uint64(d)
		ea = rd.prevEA
		if op.IsMemory() {
			if i == avail {
				return 0, truncated(rd.srcErr)
			}
			size = b[i]
			i++
		}
	}
	// Field by field: a composite literal is assembled on the stack with
	// byte stores and copied out with wide loads, which stall on
	// store forwarding.
	r.PC, r.EA = rd.prevPC, ea
	r.Op, r.Dst, r.Src1, r.Src2, r.Size = op, dst, src1, src2, size
	r.Taken = flags&flagTaken != 0
	if err := r.Validate(); err != nil {
		return 0, err
	}
	return i, nil
}

// varint decodes the zigzag varint at the front of b, of which the stream
// supplied avail bytes, and returns it with its length.
func (rd *Reader) varint(b []byte, avail int) (int64, int, error) {
	if avail > 0 && b[0] < 0x80 {
		return int64(b[0]>>1) ^ -int64(b[0]&1), 1, nil
	}
	ux, n := uvarint(b[:min(avail, len(b))])
	if n <= 0 {
		return 0, 0, truncated(rd.varintErr(n, avail > 0))
	}
	return int64(ux>>1) ^ -int64(ux&1), n, nil
}

// truncated is the error for a record the stream ends inside of.
func truncated(err error) error {
	return fmt.Errorf("trace: truncated record: %w", err)
}

// OpenReader returns a Reader for a trace stream, transparently handling
// gzip-compressed traces (long TPC-C captures are routinely stored
// compressed). For gzip input the Reader validates the gzip trailer
// (CRC32 and uncompressed length) once the records end: a compressed
// trace that was cut short surfaces through Err() instead of silently
// reading as a shorter trace.
func OpenReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, fileBufBytes)
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
