package config

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
)

// JSON persistence for configurations. The paper's model carried ~500
// parameters in configuration files so studies were reproducible from
// artifacts; this is the same facility: dump a preset, edit, re-run.

// WriteJSON serializes the configuration as indented JSON.
func (c Config) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(c)
}

// DecodeStrict decodes one JSON object from r into v: unknown fields are
// rejected, and so is anything but whitespace after the object, so neither
// a typo nor a second object can be silently ignored. Configuration
// overlays and the service's request bodies share it, so every JSON
// surface rejects the same inputs.
func DecodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if err == nil {
			err = errors.New("trailing data after the JSON object")
		}
		return err
	}
	return nil
}

// OverlayJSON reads a *partial* configuration on top of base: fields
// present in the JSON replace the base values, everything else keeps the
// preset. This is how study variants are expressed as small files. The
// input is strictly decoded (DecodeStrict) and the result validated.
func OverlayJSON(base Config, r io.Reader) (Config, error) {
	c := base
	if err := DecodeStrict(r, &c); err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}
