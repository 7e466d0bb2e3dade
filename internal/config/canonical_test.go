package config

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	"strings"
	"sync"
	"testing"

	"sparc64v/internal/workload"
)

// canonicalRoundTrip is the definition run-cache keys were first computed
// with, kept as the oracle CanonicalJSON must match byte for byte: marshal,
// decode into an untyped tree with every number kept as its literal, and
// marshal again so encoding/json sorts the object keys.
func canonicalRoundTrip(v any) ([]byte, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("config: canonical marshal: %w", err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return nil, fmt.Errorf("config: canonicalize: %w", err)
	}
	out, err := json.Marshal(tree)
	if err != nil {
		return nil, fmt.Errorf("config: canonicalize: %w", err)
	}
	return out, nil
}

// assertMatchesOracle fails t unless CanonicalJSON(v) succeeds and equals
// the round-trip oracle's bytes.
func assertMatchesOracle(t *testing.T, name string, v any) {
	t.Helper()
	want, err := canonicalRoundTrip(v)
	if err != nil {
		t.Fatalf("%s: oracle: %v", name, err)
	}
	got, err := CanonicalJSON(v)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s: canonical bytes differ from the round trip\n got: %s\nwant: %s", name, got, want)
	}
}

// shippedSchedules are the sampling schedules the repository runs: the
// disabled zero value, the "auto" default at each command's default trace
// length, the core and sparcbench benchmark schedules, and the sampled
// study's schedule (internal/expt) at the sweep and quick-verify lengths.
func shippedSchedules() map[string]Sampling {
	s := map[string]Sampling{
		"zero":                 {},
		"core-bench":           {IntervalInsts: 40_000, WarmupInsts: 2_000, MeasureInsts: 3_000},
		"sparcbench-quick":     {IntervalInsts: 4_000, WarmupInsts: 500, MeasureInsts: 500},
		"expt-1M":              {IntervalInsts: 25_000, WarmupInsts: 2_000, MeasureInsts: 5_000},
		"expt-30k":             {IntervalInsts: 10_000, WarmupInsts: 2_000, MeasureInsts: 2_000},
		"offset":               {IntervalInsts: 100_000, WarmupInsts: 2_000, MeasureInsts: 5_000, OffsetInsts: 7},
		"sweep-default-auto":   DefaultSampling(1_000_000),
		"accuracy-default":     DefaultSampling(300_000),
		"sparc64sim-default":   DefaultSampling(400_000),
		"short-trace-clamped":  DefaultSampling(30_000),
		"tiny-trace-quartered": DefaultSampling(1_000),
	}
	return s
}

// TestCanonicalJSONMatchesRoundTrip holds every content address the
// repository derives to the bytes the round trip wrote: the base machine,
// every preset variant, every workload profile and every shipped sampling
// schedule.
func TestCanonicalJSONMatchesRoundTrip(t *testing.T) {
	base := Base()
	configs := map[string]Config{
		"Base":             base,
		"WithName":         base.WithName("renamed <&> \u2028"),
		"WithCPUs":         base.WithCPUs(16),
		"WithIssueWidth":   base.WithIssueWidth(2),
		"WithSmallBHT":     base.WithSmallBHT(),
		"WithSmallL1":      base.WithSmallL1(),
		"WithL1Capacity":   base.WithL1Capacity(16<<10, 1),
		"WithOffChipL2":    base.WithOffChipL2(1),
		"WithoutPrefetch":  base.WithoutPrefetch(),
		"WithOneRS":        base.WithOneRS(),
		"WithPerfect":      base.WithPerfect(Perfect{L2: true, Branch: true}),
		"WithFidelity":     base.WithFidelity(Fidelity{FlatMemory: true, FlatMemoryCycles: 80}, false),
		"composed-presets": base.WithSmallL1().WithOffChipL2(2).WithoutPrefetch().WithCPUs(4),
	}
	for name, c := range configs {
		assertMatchesOracle(t, name, c)
	}
	for _, name := range workload.Names() {
		p, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %q does not resolve", name)
		}
		assertMatchesOracle(t, name, p)
	}
	for name, s := range shippedSchedules() {
		assertMatchesOracle(t, "sampling "+name, s)
	}
}

// everyKind carries each kind, tag form and map-key kind the encoder
// supports, plus fields it must skip.
type everyKind struct {
	B        bool
	I8       int8
	I64      int64
	U        uint
	U16      uint16
	F32      float32
	F64      float64
	S        string
	Renamed  int `json:"renamed"`
	Punct    int `json:"a-b.c"`
	Skipped  int `json:"-"`
	DashName int `json:"-,"`
	EmptyTag int `json:""`
	private  int
	Arr      [3]float32
	Strings  []string
	SM       map[string]int
	IM       map[int16]float64
	UM       map[uint8]bool
	Nest     []map[string][2]bool
	Inner    struct{ Z, A int }
}

// node is a recursive type: its plan must refer to itself.
type node struct {
	Name string
	Kids []node
}

// TestCanonicalJSONKindsMatchRoundTrip runs the differential check over
// random values of every supported kind and of the key-bearing types, with
// numbers drawn across the float format boundaries and strings built from
// every escaped character.
func TestCanonicalJSONKindsMatchRoundTrip(t *testing.T) {
	r := rand.New(rand.NewPCG(21, 1))
	var ek everyKind
	ek.private = 1
	assertMatchesOracle(t, "zero everyKind", ek)
	assertMatchesOracle(t, "recursive", node{Name: "root", Kids: []node{{Name: "a"}, {Name: "b", Kids: []node{{}}}}})
	for i := range 300 {
		for _, v := range []any{&everyKind{}, &Config{}, &workload.Profile{}, &Sampling{}} {
			rv := reflect.ValueOf(v).Elem()
			fillRandom(rv, r)
			assertMatchesOracle(t, fmt.Sprintf("random %s #%d", rv.Type(), i), rv.Interface())
		}
	}
}

// escapes holds every character class appendString treats specially.
var escapes = []string{"a", "Z", "0", " ", "\"", "\\", "/", "<", ">", "&", "\n", "\r", "\t",
	"\b", "\f", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\u2029", "\U0001F600", "\xff", "\xc3"}

// fillRandom overwrites v, which must be settable, with random values.
func fillRandom(v reflect.Value, r *rand.Rand) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(r.IntN(2) == 1)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt([]int64{0, 1, -1, math.MaxInt64, math.MinInt64, r.Int64() >> r.IntN(64)}[r.IntN(6)])
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint([]uint64{0, 1, math.MaxUint64, r.Uint64() >> r.IntN(64)}[r.IntN(4)])
	case reflect.Float32, reflect.Float64:
		f := (r.Float64() - 0.5) * math.Pow(10, float64(r.IntN(60)-30))
		v.SetFloat([]float64{0, math.Copysign(0, -1), 1e-6, 1e-7, 1e21, 1e20, 0.1, f, f, f}[r.IntN(10)])
	case reflect.String:
		var sb strings.Builder
		for range r.IntN(6) {
			sb.WriteString(escapes[r.IntN(len(escapes))])
		}
		v.SetString(sb.String())
	case reflect.Struct:
		for i := range v.NumField() {
			if v.Type().Field(i).IsExported() {
				fillRandom(v.Field(i), r)
			}
		}
	case reflect.Array:
		for i := range v.Len() {
			fillRandom(v.Index(i), r)
		}
	case reflect.Slice:
		n := r.IntN(4) - 1
		if n < 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := range n {
			fillRandom(v.Index(i), r)
		}
	case reflect.Map:
		n := r.IntN(5) - 1
		if n < 0 {
			v.SetZero()
			return
		}
		v.Set(reflect.MakeMap(v.Type()))
		for range n {
			k := reflect.New(v.Type().Key()).Elem()
			fillRandom(k, r)
			if k.Kind() == reflect.String {
				// Map keys must be valid UTF-8 (see TestCanonicalJSONUnsupported).
				k.SetString(strings.ToValidUTF8(k.String(), "?"))
			}
			e := reflect.New(v.Type().Elem()).Elem()
			fillRandom(e, r)
			v.SetMapIndex(k, e)
		}
	default:
		panic("fillRandom: unhandled kind " + v.Kind().String())
	}
}

// TestCanonicalJSONConcurrent builds and reads the plan cache from several
// goroutines at once, as concurrent service requests do; run it with -race.
func TestCanonicalJSONConcurrent(t *testing.T) {
	type probe struct {
		Kids []node
		M    map[string]Sampling
	}
	v := probe{Kids: []node{{Name: "a"}}, M: map[string]Sampling{"auto": DefaultSampling(1_000_000)}}
	want, err := canonicalRoundTrip(v)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if got, err := CanonicalJSON(v); err != nil || !bytes.Equal(got, want) {
					t.Errorf("concurrent encode = %s, %v; want %s", got, err, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

type textKey int

func (textKey) MarshalText() ([]byte, error) { return []byte("k"), nil }

type jsonValue struct{ N int }

func (*jsonValue) MarshalJSON() ([]byte, error) { return []byte(`"custom"`), nil }

type embedded struct{ N int }

// TestCanonicalJSONUnsupported pins that every input outside the encoder's
// coverage is an error, never a guess at encoding/json's output.
func TestCanonicalJSONUnsupported(t *testing.T) {
	for name, v := range map[string]any{
		"nil":              nil,
		"chan field":       struct{ C chan int }{},
		"nil any field":    struct{ A any }{},
		"any field":        struct{ A any }{A: 1},
		"json.RawMessage":  json.RawMessage(`{}`),
		"RawMessage field": struct{ R json.RawMessage }{},
		"pointer field":    struct{ P *int }{},
		"byte slice":       []byte("x"),
		"func":             func() {},
		"complex":          complex(1, 2),
		"omitempty": struct {
			N int `json:"n,omitempty"`
		}{},
		"string option": struct {
			N int `json:",string"`
		}{},
		"invalid tag name": struct {
			N int `json:"a\"b"`
		}{},
		"duplicate names": struct {
			A int
			B int `json:"A"`
		}{},
		"embedded struct":     struct{ embedded }{},
		"float map key":       map[float64]int{1: 1},
		"TextMarshaler key":   map[textKey]int{1: 1},
		"pointer MarshalJSON": jsonValue{},
		"invalid UTF-8 key":   map[string]int{"\xff": 1},
		"NaN":                 math.NaN(),
		"+Inf in a struct":    struct{ F float32 }{F: float32(math.Inf(1))},
		"-Inf in a map":       map[string]float64{"x": math.Inf(-1)},
	} {
		if b, err := CanonicalJSON(v); err == nil {
			t.Errorf("%s: encoded as %s, want an error", name, b)
		}
	}
}

// BenchmarkCanonicalJSON measures key derivation for the three values a
// run key hashes: the machine, the workload profile and the schedule.
func BenchmarkCanonicalJSON(b *testing.B) {
	for _, bc := range []struct {
		name string
		v    any
	}{
		{"Base", Base()},
		{"TPCC", workload.TPCC()},
		{"Sampling", DefaultSampling(1_000_000)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := CanonicalJSON(bc.v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
