package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"sparc64v/internal/config"
)

// resolveBody runs a /v1/run body through the handler's front half — body
// decode, then ResolveRun — and returns the status handleRun would answer
// with before simulating (200 standing for "accepted"), the decoded
// request, and, if accepted, the run's key ID.
func resolveBody(body []byte) (int, RunRequest, string) {
	w := httptest.NewRecorder()
	r := httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body))
	var req RunRequest
	if !decodeBody(w, r, &req) {
		return w.Code, req, ""
	}
	rr, err := ResolveRun(config.Base(), 20_000, req)
	if err != nil {
		return http.StatusBadRequest, req, ""
	}
	return http.StatusOK, req, rr.Key.ID()
}

// FuzzRunRequest fuzzes the JSON run surface: any body either resolves to
// a run or is rejected as a client error (4xx, never 5xx), without a
// panic, and a request resolves to the same content key every time it is
// sent — as the same bytes or re-encoded.
func FuzzRunRequest(f *testing.F) {
	for _, seed := range []string{
		`{"workload":"specint95","seed":9}`,
		`{"workload":"tpcc","insts":20000,"warmup":4000}`,
		`{"workload":"tpcc16p","cpus":2}`,
		`{"workload":"specint2000","sampling":{"interval_insts":10000,"warmup_insts":1000,"measure_insts":2000}}`,
		`{"workload":"specfp95","config":{"CPU":{"IssueWidth":2}}}`,
		`{"workload":"nope"}`,
		`{"workload":"specint95","insts":-1}`,
		`{"workload":"specint95","cpus":-3}`,
		`{"workload":"specint95","unknown":1}`,
		`{"workload":"specint95","config":{"ITLB":{"Entries":0}}}`,
		`{"workload":"specint95","config":{"DTLB":{"PageBytes":3000}}}`,
		`{"workload":"specint95","config":{"RASEntries":-1}}`,
		`{"workload":"specint95","config":{"Mem":{"PrefetchDegree":0,"PrefetchTableEntries":48}}}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		code, req, key := resolveBody(body)
		if code < 400 && code != http.StatusOK || code >= 500 {
			t.Fatalf("body %q: status %d, want 200 or a 4xx rejection", body, code)
		}
		if code != http.StatusOK {
			return
		}
		if code2, _, key2 := resolveBody(body); code2 != code || key2 != key {
			t.Fatalf("body %q: resolved to %d %s, then %d %s", body, code, key, code2, key2)
		}
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		if code2, _, key2 := resolveBody(again); code2 != code || key2 != key {
			t.Fatalf("body %q re-encoded as %q: key %s, then status %d key %s", body, again, key, code2, key2)
		}
	})
}
