// Command tracegen generates a synthetic instruction trace (or a
// reverse-traced test program) and writes it to a file.
//
// Examples:
//
//	tracegen -workload tpcc -insts 1000000 -out tpcc.s64v
//	tracegen -workload specfp95 -insts 200000 -program fp95.prog
package main

import (
	"compress/gzip"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"sparc64v/internal/trace"
	"sparc64v/internal/verif"
	"sparc64v/internal/workload"
)

func main() {
	var (
		workloadName = flag.String("workload", "specint95", "workload: "+strings.Join(workload.Names(), "|"))
		insts        = flag.Int("insts", 200_000, "records to generate")
		seed         = flag.Int64("seed", 42, "generator seed")
		cpu          = flag.Int("cpu", 0, "CPU index (MP workloads)")
		out          = flag.String("out", "", "trace output file (.s64v)")
		program      = flag.String("program", "", "reverse-traced program output file")
		compress     = flag.Bool("gzip", false, "gzip-compress the trace output")
	)
	flag.Parse()
	if *out == "" && *program == "" {
		fatal("need -out and/or -program")
	}

	prof, ok := workload.ByName(*workloadName)
	if !ok {
		fatal("unknown -workload %q (have %v)", *workloadName, workload.Names())
	}
	gen := workload.New(prof, *seed, *cpu)
	src := trace.NewLimitSource(gen, *insts)

	if *out != "" && *program != "" {
		// Need the records twice: buffer them.
		recs := trace.Collect(src, 0)
		writeTrace(*out, trace.NewSliceSource(recs), *compress)
		writeProgram(*program, trace.NewSliceSource(recs))
		return
	}
	if *out != "" {
		writeTrace(*out, src, *compress)
	}
	if *program != "" {
		writeProgram(*program, src)
	}
}

func writeTrace(path string, src trace.Source, compress bool) {
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	var sink io.Writer = f
	var gz *gzip.Writer
	if compress {
		gz = gzip.NewWriter(f)
		sink = gz
	}
	w, err := trace.NewWriter(sink)
	if err != nil {
		fatal("%v", err)
	}
	var r trace.Record
	for src.Next(&r) {
		if err := w.Write(&r); err != nil {
			fatal("%v", err)
		}
	}
	if err := w.Flush(); err != nil {
		fatal("%v", err)
	}
	if gz != nil {
		if err := gz.Close(); err != nil {
			fatal("%v", err)
		}
	}
	st, _ := f.Stat()
	fmt.Printf("wrote %d records to %s (%d bytes, %.2f B/record)\n",
		w.Count(), path, st.Size(), float64(st.Size())/float64(w.Count()))
}

func writeProgram(path string, src trace.Source) {
	prog, err := verif.FromTrace(src)
	if err != nil {
		fatal("reverse trace: %v", err)
	}
	f, err := os.Create(path)
	if err != nil {
		fatal("%v", err)
	}
	defer f.Close()
	n, err := prog.WriteTo(f)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Printf("wrote program: %d dynamic instrs, %d static, %d bytes\n",
		prog.Len(), prog.StaticInstrs(), n)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
