package trace_test

import (
	"bytes"
	"compress/gzip"
	"testing"

	"sparc64v/internal/trace"
	"sparc64v/internal/workload"
)

// gzipTrace encodes n records of the profile's CPU-cpu stream as an
// in-memory gzip trace file.
func gzipTrace(tb testing.TB, p workload.Profile, seed int64, cpu, n int) []byte {
	tb.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	w, err := trace.NewWriterCount(gz, uint64(n))
	if err != nil {
		tb.Fatal(err)
	}
	src := trace.NewLimitSource(workload.New(p, seed, cpu), n)
	var r trace.Record
	for src.Next(&r) {
		if err := w.Write(&r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkReaderNext is the trace-file decode layer: OpenReader plus Next
// over a 120k-record SPECint95 gzip trace, inflate and parse together, on
// the calling goroutine. It reports ns per record.
func BenchmarkReaderNext(b *testing.B) {
	const n = 120_000
	data := gzipTrace(b, workload.SPECint95(), 1, 0, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd, err := trace.OpenReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		var r trace.Record
		got := 0
		for rd.Next(&r) {
			got++
		}
		if err := rd.Err(); err != nil || got != n {
			b.Fatalf("decoded %d of %d records: %v", got, n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/record")
}
