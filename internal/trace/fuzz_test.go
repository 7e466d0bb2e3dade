package trace

import (
	"bytes"
	"testing"

	"sparc64v/internal/isa"
)

// FuzzReader feeds arbitrary bytes to the trace reader: it must never
// panic, every record it does yield must validate, and it must agree with
// the byte-at-a-time reference decoder (reference_test.go) record for
// record and error for error.
func FuzzReader(f *testing.F) {
	// Seed with a real trace prefix and some junk.
	var buf bytes.Buffer
	w, _ := NewWriter(&buf)
	for i := 0; i < 20; i++ {
		r := Record{PC: uint64(0x1000 + 4*i), Op: isa.IntALU,
			Dst: uint8(8 + i%8), Src1: isa.RegNone, Src2: isa.RegNone}
		w.Write(&r)
	}
	w.Flush()
	f.Add(buf.Bytes())
	f.Add([]byte(Magic))
	f.Add([]byte("garbage"))
	f.Add([]byte{0x1f, 0x8b, 0x00})
	f.Add(gzipBytes(buf.Bytes()))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, err := OpenReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		var r Record
		for i := 0; rd.Next(&r) && i < 10000; i++ {
			if err := r.Validate(); err != nil {
				t.Fatalf("reader yielded invalid record: %v", err)
			}
		}
		checkSame(t, "fuzz input", data, true)
	})
}
