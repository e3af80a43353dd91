package historian

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"
)

// TestFastFloatMatchesPointFloat pins the ingest-path parser to the public
// Point.Float semantics across the payload shapes the stack produces.
func TestFastFloatMatchesPointFloat(t *testing.T) {
	payloads := []string{
		"0", "1", "-1", "12.25", "0.5", "-0.5", "3.14159", "1e3", "1.5e-3",
		"2E+4", "100000000000000000000000", "0.00000000000000000001",
		"9007199254740993", "123456789012345678901234567890",
		"007", "--1", "1..2", "1.", ".5", "-", "", " 12.25 ", "\t3\n",
		"1e", "1e+", "0x10", "NaN", "Inf", "-Infinity", "null", "true",
		`"12.25"`, `"not numeric"`,
		`{"value": 3.5}`, `{"value":12.25}`, `{"value": "7.25"}`,
		`{"value": "abc"}`, `{"value": null}`, `{"value": true}`,
		`{"machine":"emco","variable":"actualX","value":12.25}`,
		`{"machine":"emco","variable":"actualX","value":12.25,"t":"x"}`,
		`{"other": 1}`, `{"value_x": 1}`, `{"note":"the \"value\" is","value":3}`,
		`{"value": -1e2}`, `{"value": 1.25e2}`, `not json at all`, `[1,2,3]`,
		`{"value":"NaN"}`, `{"value":"Inf"}`,
		// Only a top-level "value" key counts: nested objects and arrays must
		// classify exactly as Point.Float's full parse does.
		`{"a":{"value":5}}`, `{"a":{"value":5},"value":7}`,
		`{"value":{"x":1}}`, `{"nested":[{"value":1}],"value":2.5}`,
		`[{"value":3}]`, `{"a":"value","value":4}`,
		`{"a":["value"],"value":6}`, `{"a":{"b":{"value":9}}}`,
		`{"value"`, `{"unterminated`, `{"esc\`,
	}
	for _, s := range payloads {
		p := Point{Payload: []byte(s)}
		wantF, wantOK := p.Float()
		gotF, gotOK := fastFloat([]byte(s))
		// fastFloat never yields NaN/Inf: those payloads intentionally read
		// as non-numeric so rollups and aggregate scans stay finite.
		if wantOK && (math.IsNaN(wantF) || math.IsInf(wantF, 0)) {
			if gotOK {
				t.Errorf("fastFloat(%q) = %v, ok — want non-numeric for NaN/Inf", s, gotF)
			}
			continue
		}
		if gotOK != wantOK || (gotOK && gotF != wantF) {
			t.Errorf("fastFloat(%q) = (%v, %v), Point.Float = (%v, %v)", s, gotF, gotOK, wantF, wantOK)
		}
	}
}

func TestFastFloatRandomNumbers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 5000; i++ {
		var s string
		switch i % 4 {
		case 0:
			s = strconv.FormatFloat(rng.NormFloat64()*math.Pow(10, float64(rng.Intn(40)-20)), 'f', -1, 64)
		case 1:
			s = strconv.FormatFloat(math.Float64frombits(rng.Uint64()), 'g', -1, 64)
		case 2:
			s = fmt.Sprintf("%d.%02d", rng.Intn(100000), rng.Intn(100))
		case 3:
			s = fmt.Sprintf("%d", rng.Int63())
		}
		want, err := strconv.ParseFloat(s, 64)
		if err != nil || math.IsNaN(want) || math.IsInf(want, 0) {
			continue
		}
		var jsonOK float64
		if json.Unmarshal([]byte(s), &jsonOK) != nil {
			continue // not a JSON number (e.g. "+1e5" from FormatFloat 'g')
		}
		got, ok := fastFloat([]byte(s))
		if !ok || got != want {
			t.Fatalf("fastFloat(%q) = (%v, %v), want (%v, true)", s, got, ok, want)
		}
	}
}
