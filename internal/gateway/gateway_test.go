package gateway

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sparc64v/internal/obs"
	"sparc64v/internal/server"
)

// TestBodySizeLimit pins the gateway's POST body bound, which is the
// worker's: a valid request padded to exactly server.MaxBodyBytes is
// proxied, one byte more is 413 at the edge, and neither is ever a 5xx.
func TestBodySizeLimit(t *testing.T) {
	transport := &scriptedTransport{byHost: map[string]func(*http.Request) (*http.Response, error){
		"n0": func(r *http.Request) (*http.Response, error) {
			return scriptedResponse(200, map[string]string{"X-Node": "n0", "X-Cache": "miss"},
				`{"key":"k","cache":"miss","stats":{}}`), nil
		},
	}}
	gw, err := New(Config{
		Workers:      []Worker{{Name: "n0", URL: "http://n0:1"}},
		DefaultInsts: 20_000,
		Client:       &http.Client{Transport: transport},
		Registry:     obs.NewRegistry(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(gw.Handler())
	defer ts.Close()

	pad := func(body string, size int) string {
		return strings.Repeat(" ", size-len(body)) + body
	}
	for _, tc := range []struct {
		path, body string
		size, want int
	}{
		{"/v1/run", `{"workload":"specint95","seed":1}`, server.MaxBodyBytes, http.StatusOK},
		{"/v1/run", `{"workload":"specint95","seed":1}`, server.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
		{"/v1/estimate", `{"workload":"specint95"}`, server.MaxBodyBytes, http.StatusOK},
		{"/v1/estimate", `{"workload":"specint95"}`, server.MaxBodyBytes + 1, http.StatusRequestEntityTooLarge},
	} {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(pad(tc.body, tc.size)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s with a %d-byte body: status %d (%s), want %d",
				tc.path, tc.size, resp.StatusCode, b, tc.want)
		}
	}
}
