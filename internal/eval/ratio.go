package eval

import (
	"encoding/json"
	"math"
)

// Ratio is a normalized deviation-area ratio that survives JSON: an
// undefined ratio (zero inertial baseline, stored as NaN) encodes as
// null instead of breaking the encoder, and decodes back to NaN.
// Defined ratios encode exactly as float64 does.
type Ratio float64

// IsDefined reports whether the ratio has a defined value.
func (r Ratio) IsDefined() bool { return !math.IsNaN(float64(r)) }

// MarshalJSON implements json.Marshaler.
func (r Ratio) MarshalJSON() ([]byte, error) {
	if !r.IsDefined() {
		return []byte("null"), nil
	}
	return json.Marshal(float64(r))
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *Ratio) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*r = Ratio(math.NaN())
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*r = Ratio(v)
	return nil
}

// convert copies a ratio map between its field form (float64, NaN
// when undefined) and its JSON form (Ratio); nil stays nil.
func convert[U, T ~float64](m map[string]T) map[string]U {
	if m == nil {
		return nil
	}
	out := make(map[string]U, len(m))
	//hybrid:nondet-ok copies each key into its own entry
	for k, v := range m {
		out[k] = U(v)
	}
	return out
}

// convertNets is convert over a per-net map of ratio maps.
func convertNets[U, T ~float64](m map[string]map[string]T) map[string]map[string]U {
	if m == nil {
		return nil
	}
	out := make(map[string]map[string]U, len(m))
	//hybrid:nondet-ok copies each net into its own entry
	for net, r := range m {
		out[net] = convert[U](r)
	}
	return out
}

// The result types keep float64 ratio maps (NaN when undefined) and
// encode them through Ratio, so a result with an undefined ratio — a
// net that never toggles, a gate whose inertial baseline is exact —
// still encodes, as null, and decodes back to NaN. The field types are
// part of the API; only the JSON form is Ratio's.

// MarshalJSON implements json.Marshaler.
func (r RunResult) MarshalJSON() ([]byte, error) {
	type plain RunResult
	return json.Marshal(struct {
		plain
		Normalized map[string]Ratio
	}{plain(r), convert[Ratio](r.Normalized)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *RunResult) UnmarshalJSON(b []byte) error {
	type plain RunResult
	aux := struct {
		*plain
		Normalized map[string]Ratio
	}{plain: (*plain)(r)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	r.Normalized = convert[float64](aux.Normalized)
	return nil
}

// MarshalJSON implements json.Marshaler.
func (r CircuitResult) MarshalJSON() ([]byte, error) {
	type plain CircuitResult
	return json.Marshal(struct {
		plain
		Normalized      map[string]map[string]Ratio
		TotalNormalized map[string]Ratio
	}{plain(r), convertNets[Ratio](r.Normalized), convert[Ratio](r.TotalNormalized)})
}

// UnmarshalJSON implements json.Unmarshaler.
func (r *CircuitResult) UnmarshalJSON(b []byte) error {
	type plain CircuitResult
	aux := struct {
		*plain
		Normalized      map[string]map[string]Ratio
		TotalNormalized map[string]Ratio
	}{plain: (*plain)(r)}
	if err := json.Unmarshal(b, &aux); err != nil {
		return err
	}
	r.Normalized = convertNets[float64](aux.Normalized)
	r.TotalNormalized = convert[float64](aux.TotalNormalized)
	return nil
}
