package config

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf8"
)

// Content addressing for configurations. A simulation result is fully
// determined by (configuration, workload, seed, model version); hashing a
// canonical serialization of the configuration gives every run a stable
// identity that survives process restarts and struct-field reordering, so
// results can be cached and deduplicated (internal/runcache) the way the
// paper's team re-ran the same model thousands of times across parameter
// variants.

// CanonicalJSON writes v as canonical JSON: object keys sorted bytewise,
// no insignificant whitespace, numbers and strings formatted exactly as
// encoding/json formats them. Two value-identical inputs always produce
// identical bytes, regardless of struct field declaration order or map
// iteration order.
//
// The encoder walks v by reflection, once, with a per-type plan cached on
// first use. It covers structs (exported fields, with the json tag's name
// or "-"), arrays, slices, maps with string or integer keys, bools, ints,
// uints, float32/64 and strings. Anything else — pointers, interfaces,
// channels, []byte, embedded fields, tag options such as omitempty, and
// types with their own MarshalJSON or MarshalText — is an error rather
// than a guess at what encoding/json would have written. So are NaN and
// ±Inf, which JSON cannot represent.
//
// The bytes equal what marshalling v, decoding the result into an untyped
// tree and marshalling that again writes: the definition run-cache keys
// were first computed with, which the tests keep as an oracle. The one
// place that definition departs from a single json.Marshal is an invalid
// UTF-8 byte in a string value: it comes out as a literal U+FFFD rather
// than the escape \ufffd.
func CanonicalJSON(v any) ([]byte, error) {
	rv := reflect.ValueOf(v)
	if !rv.IsValid() {
		return nil, fmt.Errorf("config: canonical JSON: nil value")
	}
	enc, err := encoderFor(rv.Type())
	if err != nil {
		return nil, err
	}
	return enc(make([]byte, 0, 512), rv)
}

// HashJSON returns the hex SHA-256 of v's canonical JSON.
func HashJSON(v any) (string, error) {
	b, err := CanonicalJSON(v)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Hash returns the hex SHA-256 of the canonical serialization: the
// configuration's content address. Equal values hash equal; any
// single-field change hashes different; the value is stable across
// processes and hosts (see TestConfigHashGolden).
func (c Config) Hash() (string, error) { return HashJSON(c) }

// encodeFunc appends v's canonical encoding to b.
type encodeFunc func(b []byte, v reflect.Value) ([]byte, error)

var encoders sync.Map // reflect.Type -> encodeFunc

// encoderFor returns t's encoder, building and caching it on first use.
func encoderFor(t reflect.Type) (encodeFunc, error) {
	if enc, ok := encoders.Load(t); ok {
		return enc.(encodeFunc), nil
	}
	enc, err := buildEncoder(t, map[reflect.Type]*encodeFunc{})
	if err != nil {
		return nil, err
	}
	encoders.Store(t, enc)
	return enc, nil
}

// buildEncoder compiles t's plan. building holds the plans under
// construction further up the stack, so a recursive type calls its own
// plan instead of expanding forever.
func buildEncoder(t reflect.Type, building map[reflect.Type]*encodeFunc) (encodeFunc, error) {
	if enc, ok := building[t]; ok {
		return func(b []byte, v reflect.Value) ([]byte, error) { return (*enc)(b, v) }, nil
	}
	enc := new(encodeFunc)
	building[t] = enc
	defer delete(building, t)
	var err error
	*enc, err = newEncoder(t, building)
	return *enc, err
}

var (
	jsonMarshaler = reflect.TypeFor[json.Marshaler]()
	textMarshaler = reflect.TypeFor[encoding.TextMarshaler]()
)

// marshals reports whether t or *t carries its own JSON or text encoding.
func marshals(t reflect.Type) bool {
	pt := reflect.PointerTo(t)
	return t.Implements(jsonMarshaler) || t.Implements(textMarshaler) ||
		pt.Implements(jsonMarshaler) || pt.Implements(textMarshaler)
}

func unsupported(t reflect.Type, why string) error {
	return fmt.Errorf("config: canonical JSON: type %s: %s", t, why)
}

func newEncoder(t reflect.Type, building map[reflect.Type]*encodeFunc) (encodeFunc, error) {
	if marshals(t) {
		return nil, unsupported(t, "custom MarshalJSON or MarshalText")
	}
	switch t.Kind() {
	case reflect.Bool:
		return func(b []byte, v reflect.Value) ([]byte, error) {
			return strconv.AppendBool(b, v.Bool()), nil
		}, nil
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return func(b []byte, v reflect.Value) ([]byte, error) {
			return strconv.AppendInt(b, v.Int(), 10), nil
		}, nil
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return func(b []byte, v reflect.Value) ([]byte, error) {
			return strconv.AppendUint(b, v.Uint(), 10), nil
		}, nil
	case reflect.Float32:
		return func(b []byte, v reflect.Value) ([]byte, error) { return appendFloat(b, v.Float(), 32) }, nil
	case reflect.Float64:
		return func(b []byte, v reflect.Value) ([]byte, error) { return appendFloat(b, v.Float(), 64) }, nil
	case reflect.String:
		return func(b []byte, v reflect.Value) ([]byte, error) {
			return appendString(b, v.String()), nil
		}, nil
	case reflect.Struct:
		return newStructEncoder(t, building)
	case reflect.Array, reflect.Slice:
		if t.Kind() == reflect.Slice && t.Elem().Kind() == reflect.Uint8 {
			return nil, unsupported(t, "byte slices encode as base64")
		}
		elem, err := buildEncoder(t.Elem(), building)
		if err != nil {
			return nil, err
		}
		isSlice := t.Kind() == reflect.Slice
		return func(b []byte, v reflect.Value) ([]byte, error) {
			if isSlice && v.IsNil() {
				return append(b, "null"...), nil
			}
			b = append(b, '[')
			var err error
			for i := range v.Len() {
				if i > 0 {
					b = append(b, ',')
				}
				if b, err = elem(b, v.Index(i)); err != nil {
					return nil, err
				}
			}
			return append(b, ']'), nil
		}, nil
	case reflect.Map:
		return newMapEncoder(t, building)
	}
	return nil, unsupported(t, "kind "+t.Kind().String()+" is not supported")
}

// structField is one encoded field of a struct plan.
type structField struct {
	name   string
	index  int
	quoted []byte // `"name":`
	encode encodeFunc
}

func newStructEncoder(t reflect.Type, building map[reflect.Type]*encodeFunc) (encodeFunc, error) {
	var fields []structField
	for i := range t.NumField() {
		sf := t.Field(i)
		if sf.Anonymous {
			return nil, unsupported(t, "embedded field "+sf.Name)
		}
		if !sf.IsExported() {
			continue
		}
		name := sf.Name
		if tag := sf.Tag.Get("json"); tag == "-" {
			continue
		} else if tag != "" {
			tagName, opts, _ := strings.Cut(tag, ",")
			if opts != "" {
				return nil, unsupported(t, fmt.Sprintf("field %s: tag option %q", sf.Name, opts))
			}
			if !validTagName(tagName) {
				return nil, unsupported(t, fmt.Sprintf("field %s: tag name %q", sf.Name, tagName))
			}
			if tagName != "" {
				name = tagName
			}
		}
		enc, err := buildEncoder(sf.Type, building)
		if err != nil {
			return nil, err
		}
		fields = append(fields, structField{
			name:   name,
			index:  i,
			quoted: append(appendString(nil, name), ':'),
			encode: enc,
		})
	}
	slices.SortFunc(fields, func(a, b structField) int { return strings.Compare(a.name, b.name) })
	for i := 1; i < len(fields); i++ {
		if fields[i].name == fields[i-1].name {
			return nil, unsupported(t, "two fields encode as "+strconv.Quote(fields[i].name))
		}
	}
	return func(b []byte, v reflect.Value) ([]byte, error) {
		b = append(b, '{')
		var err error
		for i := range fields {
			f := &fields[i]
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, f.quoted...)
			if b, err = f.encode(b, v.Field(f.index)); err != nil {
				return nil, err
			}
		}
		return append(b, '}'), nil
	}, nil
}

// validTagName reports whether encoding/json would take name as written;
// it falls back to the Go field name otherwise.
func validTagName(name string) bool {
	for _, c := range name {
		if !strings.ContainsRune("!#$%&()*+-./:;<=>?@[]^_{|}~ ", c) &&
			!unicode.IsLetter(c) && !unicode.IsDigit(c) {
			return false
		}
	}
	return true
}

// mapEntry is one map entry with its key already in encoded (string) form.
type mapEntry struct {
	key string
	val reflect.Value
}

func newMapEncoder(t reflect.Type, building map[reflect.Type]*encodeFunc) (encodeFunc, error) {
	kt := t.Key()
	if marshals(kt) {
		return nil, unsupported(t, "map key with custom MarshalJSON or MarshalText")
	}
	var keyString func(k reflect.Value) (string, error)
	switch kt.Kind() {
	case reflect.String:
		keyString = func(k reflect.Value) (string, error) {
			// The oracle sorts keys after replacing invalid bytes, which
			// can reorder or merge them: refuse rather than guess.
			if s := k.String(); utf8.ValidString(s) {
				return s, nil
			}
			return "", unsupported(t, "map key is not valid UTF-8")
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		keyString = func(k reflect.Value) (string, error) { return strconv.FormatInt(k.Int(), 10), nil }
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		keyString = func(k reflect.Value) (string, error) { return strconv.FormatUint(k.Uint(), 10), nil }
	default:
		return nil, unsupported(t, "map key kind "+kt.Kind().String())
	}
	elem, err := buildEncoder(t.Elem(), building)
	if err != nil {
		return nil, err
	}
	return func(b []byte, v reflect.Value) ([]byte, error) {
		if v.IsNil() {
			return append(b, "null"...), nil
		}
		entries := make([]mapEntry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			k, err := keyString(it.Key())
			if err != nil {
				return nil, err
			}
			entries = append(entries, mapEntry{k, it.Value()})
		}
		slices.SortFunc(entries, func(a, b mapEntry) int { return strings.Compare(a.key, b.key) })
		b = append(b, '{')
		var err error
		for i, e := range entries {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(appendString(b, e.key), ':')
			if b, err = elem(b, e.val); err != nil {
				return nil, err
			}
		}
		return append(b, '}'), nil
	}, nil
}

// appendFloat formats f as encoding/json does: shortest round-trip digits,
// in exponent form only below 1e-6 or from 1e21 up, with a one-digit
// negative exponent written without its leading zero (1e-7, not 1e-07).
func appendFloat(b []byte, f float64, bits int) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return nil, fmt.Errorf("config: canonical JSON: unsupported value %s",
			strconv.FormatFloat(f, 'g', -1, bits))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 {
		if bits == 64 && (abs < 1e-6 || abs >= 1e21) ||
			bits == 32 && (float32(abs) < 1e-6 || float32(abs) >= 1e21) {
			format = 'e'
		}
	}
	b = strconv.AppendFloat(b, f, format, -1, bits)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, nil
}

const hexDigits = "0123456789abcdef"

// appendString quotes s as encoding/json does, HTML-safe: '<', '>' and '&'
// and U+2028/U+2029 are escaped, as are '"', '\\' and control bytes. An
// invalid UTF-8 byte becomes a literal U+FFFD (see CanonicalJSON).
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, string(utf8.RuneError)...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
