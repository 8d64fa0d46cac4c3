// Package jsonenc appends JSON scalars byte-identically to
// encoding/json, without reflection: the float and string encoders
// shared by the hand-rolled JSONL encoders of per-job records
// (internal/metrics) and lifecycle trace events (internal/trace),
// which run once per simulated job or event.
package jsonenc

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"unicode/utf8"
)

// Float appends f exactly as encoding/json encodes a float64: the
// shortest round-trip form, in 'e' notation outside [1e-6, 1e21), with
// a one-digit exponent written without a leading zero ("1e-7", not
// "1e-07"). NaN and ±Inf have no JSON form: like json.Marshal, Float
// fails on them with a *json.UnsupportedValueError, returning b
// unchanged.
func Float(b []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims "e-07" to "e-7"; a large exponent has two
		// digits or more, so "e+" never needs trimming.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// String appends s quoted exactly as encoding/json quotes it. The fast
// path covers the strings the engine emits (plain ASCII grammar text);
// anything that needs escaping (control bytes, quotes, backslashes,
// HTML-sensitive characters, non-ASCII) falls back to json.Marshal.
func String(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			blob, err := json.Marshal(s)
			if err != nil { // unreachable for a string
				return append(b, `""`...)
			}
			return append(b, blob...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
