package workload

import (
	"reflect"
	"strings"
	"testing"
)

// TestByName: every listed name resolves, upper-case too, each to its own
// profile, and an unknown name does not resolve.
func TestByName(t *testing.T) {
	var seen []Profile
	for _, name := range Names() {
		p, ok := ByName(name)
		if !ok {
			t.Fatalf("ByName(%q) failed", name)
		}
		if up, ok := ByName(strings.ToUpper(name)); !ok || !reflect.DeepEqual(up, p) {
			t.Errorf("ByName(%q) does not resolve to the %q profile", strings.ToUpper(name), name)
		}
		for _, q := range seen {
			if reflect.DeepEqual(p, q) {
				t.Errorf("ByName(%q) repeats profile %q", name, q.Name)
			}
		}
		seen = append(seen, p)
	}
	if _, ok := ByName("quake3"); ok {
		t.Error("ByName resolved an unknown workload")
	}
}
