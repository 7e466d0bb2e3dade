package main

import (
	"bytes"
	"strings"
	"testing"

	"sparc64v/internal/metamorph"
)

// These tests arm process-global state (the fault injectors) through the
// CLI entry point, so none of them may run in parallel.

func TestUnknownCheckListsValidNames(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-quick", "-checks", "no-such-check"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2; stderr: %s", code, errb.String())
	}
	msg := errb.String()
	// The listing must include every catalog check, the cluster check
	// among them — the whole point of the error is discoverability.
	for _, want := range []string{"no-such-check", "tso-outcomes", "diff-cluster-replay", "mono-l1-size"} {
		if !strings.Contains(msg, want) {
			t.Errorf("stderr %q does not mention %q", msg, want)
		}
	}
}

func TestUnknownFaultRejected(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-inject", "no-such-fault"}, &out, &errb)
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if msg := errb.String(); !strings.Contains(msg, "l1index") || !strings.Contains(msg, "dropinval") {
		t.Errorf("stderr %q does not list the known faults", msg)
	}
}

func TestQuickFullExclusive(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-quick", "-full"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

// TestInjectDropInvalFailsTSOCheck is the end-to-end self-test the issue
// demands: `verify -inject dropinval -checks tso-outcomes` must exit 1
// with the conformance check FAILING on forbidden litmus outcomes.
func TestInjectDropInvalFailsTSOCheck(t *testing.T) {
	if testing.Short() {
		t.Skip("runs litmus sweeps")
	}
	defer metamorph.InjectFault("none")
	var out, errb bytes.Buffer
	code := run([]string{"-quick", "-checks", "tso-outcomes", "-inject", "dropinval"}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (check must FAIL)\nstdout: %s\nstderr: %s",
			code, out.String(), errb.String())
	}
	msg := out.String()
	if !strings.Contains(msg, "FAIL") || !strings.Contains(msg, "forbidden") {
		t.Errorf("report does not show the forbidden-outcome failure: %s", msg)
	}
	if !strings.Contains(msg, "INJECTED FAULT=dropinval") {
		t.Errorf("report header does not flag the armed fault: %s", msg)
	}
}
