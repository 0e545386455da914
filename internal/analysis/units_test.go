package analysis

import (
	"math"
	"testing"
)

func unit(t *testing.T, expr string) Unit {
	t.Helper()
	u, err := ParseUnit(expr)
	if err != nil {
		t.Fatalf("ParseUnit(%q): %v", expr, err)
	}
	return u
}

func TestParseUnit(t *testing.T) {
	m := unit(t, "m")
	s := unit(t, "s")
	uT := unit(t, "uT")
	cases := []struct {
		expr string
		want Unit
	}{
		{"dimensionless", Dimensionless},
		{"1", Dimensionless},
		{"m", m},
		{"cm", Unit{Scale: 0.01, Dims: m.Dims}},
		{"mm", Unit{Scale: 1e-3, Dims: m.Dims}},
		{"km", Unit{Scale: 1e3, Dims: m.Dims}},
		{"us", Unit{Scale: 1e-6, Dims: s.Dims}},
		{"µT", uT},
		{"uT", Unit{Scale: 1e-6, Dims: unit(t, "T").Dims}},
		{"Hz", Dimensionless.Div(s)},
		{"kHz", Unit{Scale: 1e3, Dims: Dimensionless.Div(s).Dims}},
		{"deg", Unit{Scale: math.Pi / 180, Dims: unit(t, "rad").Dims}},
		{"uT/s", uT.Div(s)},
		{"m/s^2", m.Div(s.Pow(2))},
		{"A*m^2", unit(t, "A").Mul(m.Pow(2))},
		{"A·m^2", unit(t, "A").Mul(m.Pow(2))},
		{"cm/m", Unit{Scale: 0.01}},
		{"score", unit(t, "score")},
	}
	for _, tc := range cases {
		got, err := ParseUnit(tc.expr)
		if err != nil {
			t.Errorf("ParseUnit(%q): %v", tc.expr, err)
			continue
		}
		if !got.Equal(tc.want) {
			t.Errorf("ParseUnit(%q) = %v (scale %g), want %v (scale %g)",
				tc.expr, got, got.Scale, tc.want, tc.want.Scale)
		}
	}
}

func TestParseUnitErrors(t *testing.T) {
	for _, expr := range []string{"", "bogus", "m/", "/m", "m^x", "m^", "furlong", "xT", "m s"} {
		if _, err := ParseUnit(expr); err == nil {
			t.Errorf("ParseUnit(%q): expected error", expr)
		}
	}
}

func TestUnitAlgebra(t *testing.T) {
	m := unit(t, "m")
	cm := unit(t, "cm")
	if m.Equal(cm) {
		t.Fatalf("m must not equal cm")
	}
	if !m.SameDims(cm) {
		t.Fatalf("m and cm share dimensions")
	}
	if !m.Mul(unit(t, "cm/m")).Equal(cm) {
		t.Fatalf("m * cm/m must be cm")
	}
	if r, ok := m.Pow(2).Sqrt(); !ok || !r.Equal(m) {
		t.Fatalf("sqrt(m^2) must be m")
	}
	if _, ok := m.Sqrt(); ok {
		t.Fatalf("sqrt(m) has no unit in the algebra")
	}
	if !unit(t, "Hz").Mul(unit(t, "s")).Equal(Dimensionless) {
		t.Fatalf("Hz·s must be dimensionless")
	}
}

func TestUnitString(t *testing.T) {
	cases := []struct {
		expr, want string
	}{
		{"cm", "cm"},
		{"uT/s", "µT/s"},
		{"m/s^2", "m/s^2"},
		{"Hz", "Hz"},
		{"dimensionless", "dimensionless"},
		{"m^2", "m^2"},
		{"cm/m", "cm/m"},
	}
	for _, tc := range cases {
		if got := unit(t, tc.expr).String(); got != tc.want {
			t.Errorf("String(%q) = %q, want %q", tc.expr, got, tc.want)
		}
	}
}

func TestParseUnitTag(t *testing.T) {
	tag, err := ParseUnitTag("cm")
	if err != nil || tag.Bare == nil || tag.Bare.Any || !tag.Bare.Unit.Equal(unit(t, "cm")) {
		t.Fatalf("bare tag: %+v, %v", tag, err)
	}
	tag, err = ParseUnitTag("any")
	if err != nil || tag.Bare == nil || !tag.Bare.Any {
		t.Fatalf("any tag: %+v, %v", tag, err)
	}
	tag, err = ParseUnitTag("swing uT, rate uT/s, return dimensionless")
	if err != nil || len(tag.Named) != 3 {
		t.Fatalf("named tag: %+v, %v", tag, err)
	}
	if tag.Named[0].Name != "swing" || !tag.Named[0].Unit.Unit.Equal(unit(t, "uT")) {
		t.Fatalf("first clause: %+v", tag.Named[0])
	}
	if tag.Named[2].Name != "return" {
		t.Fatalf("return clause: %+v", tag.Named[2])
	}
	for _, body := range []string{"", "cm, rate uT", "bad-name s", "t in seconds."} {
		if _, err := ParseUnitTag(body); err == nil {
			t.Errorf("ParseUnitTag(%q): expected error", body)
		}
	}
}

func TestCutUnitTag(t *testing.T) {
	if body, ok := CutUnitTag("  unit: cm  "); !ok || body != "cm" {
		t.Fatalf("CutUnitTag line-start: %q, %v", body, ok)
	}
	if _, ok := CutUnitTag("the unit: cm is used"); ok {
		t.Fatalf("mid-line unit: must not be a tag")
	}
}

func TestUnitFromName(t *testing.T) {
	cases := []struct {
		name string
		expr string
	}{
		{"MaxDistanceMeters", "m"},
		{"cutoffHz", "Hz"},
		{"SwingMicroTesla", "uT"},
		{"SwingMicroTeslaPerSecond", "uT/s"},
		{"windowSeconds", "s"},
		{"HalfAngleDeg", "deg"},
		{"NoiseDB", "dB"},
		{"accelMS2", "m/s^2"},
		{"GainRatio", "dimensionless"},
	}
	for _, tc := range cases {
		got, ok := UnitFromName(tc.name)
		if !ok {
			t.Errorf("UnitFromName(%q): no unit", tc.name)
			continue
		}
		if want := unit(t, tc.expr); !got.Equal(want) {
			t.Errorf("UnitFromName(%q) = %v, want %v", tc.name, got, want)
		}
	}
	for _, name := range []string{"x", "count", "Label", "PerSecond"} {
		if _, ok := UnitFromName(name); ok {
			t.Errorf("UnitFromName(%q): unexpected unit", name)
		}
	}
}
