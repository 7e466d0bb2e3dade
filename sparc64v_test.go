package sparc64v

import (
	"context"
	"testing"

	"sparc64v/internal/trace"
)

// The public facade must be usable end-to-end the way README shows.
func TestPublicAPIQuickstart(t *testing.T) {
	model, err := NewModel(BaseConfig())
	if err != nil {
		t.Fatal(err)
	}
	report, err := model.RunContext(context.Background(), TPCC(), RunOptions{Insts: 40_000})
	if err != nil {
		t.Fatal(err)
	}
	if report.IPC() <= 0 {
		t.Fatal("zero IPC through the public API")
	}
	if report.L2DemandMissRate() <= 0 {
		t.Fatal("TPC-C with a zero L2 miss rate")
	}
}

func TestPublicWorkloads(t *testing.T) {
	if len(Workloads()) != 5 {
		t.Fatalf("Workloads() = %d profiles", len(Workloads()))
	}
	src := NewTrace(SPECfp95(), 1, 0)
	var r TraceRecord
	if !src.Next(&r) {
		t.Fatal("trace source empty")
	}
}

func TestPublicVersions(t *testing.T) {
	if len(ModelVersions()) != 8 {
		t.Fatal("ModelVersions() != 8")
	}
}

func TestPublicReverseTracer(t *testing.T) {
	recs := trace.Collect(trace.NewLimitSource(NewTrace(SPECint95(), 2, 0), 5000), 0)
	prog, err := ReverseTrace(trace.NewSliceSource(recs))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != len(recs) {
		t.Fatalf("program length %d != %d", prog.Len(), len(recs))
	}
}

func TestPublicBreakdown(t *testing.T) {
	model, _ := NewModel(BaseConfig())
	br, err := model.BreakdownContext(context.Background(), SPECint95(), RunOptions{Insts: 30_000})
	if err != nil {
		t.Fatal(err)
	}
	if br.Breakdown.Sum() < 0.9 {
		t.Fatalf("breakdown sum %.2f", br.Breakdown.Sum())
	}
}

func TestPublicExperimentTable1(t *testing.T) {
	if r := Table1(); r.Table.Rows() == 0 {
		t.Fatal("empty Table 1")
	}
}

// TestPublicExperiments: the facade's study registry lists the evaluation
// in presentation order, and each entry runs through its one call form.
func TestPublicExperiments(t *testing.T) {
	es := Experiments()
	if len(es) == 0 || es[0].Name != "Table 1" {
		t.Fatalf("Experiments() does not open with Table 1: %d entries", len(es))
	}
	var e Experiment = es[0]
	rs, err := e.Run(context.Background(), RunOptions{})
	want := Table1()
	if err != nil || len(rs) != 1 || rs[0].String() != want.String() {
		t.Fatalf("Table 1 through Experiments(): %d results, err %v", len(rs), err)
	}
}
