package analysis

// Unit algebra for the unitflow analyzer and the machine-readable form of
// the "unit:" doc tag.
//
// A Unit is a dimension vector over the base dimensions the cascade's
// physics uses (m, s, A, T, rad, dB, plus the back-end "score"
// pseudo-dimension for LLR-style quantities; Hz is the derived s^-1, so
// sample-index-over-rate algebra infers seconds) together with a scale factor
// relative to the coherent base unit: cm is 0.01·m, µT is 1e-6·T. Two
// quantities are addable/comparable only when both the dimension vector
// and the scale agree — a cm/m mix-up has equal dimensions but unequal
// scale, and is exactly the silent bug class the analyzer exists to catch.
//
// The parsed tag grammar (one comment line, after the "unit:" marker):
//
//	EXPR   := TERM { ("*" | "·" | "/") TERM } | "dimensionless" | "1" | "any"
//	TERM   := BASE [ "^" INT ]
//	BASE   := [PREFIX] ("m"|"s"|"A"|"T"|"Hz"|"rad"|"dB") | "deg" | "score"
//	PREFIX := "n" | "u" | "µ" | "c" | "m" | "k" | "M" | "G"
//
// so "cm", "uT/s", "m/s^2", "A*m^2" and "dimensionless" all parse. "any"
// declares a quantity intentionally polymorphic (e.g. a generic vector
// component) and seeds no dimension. A tag line is either one bare EXPR
// (struct fields, consts, vars) or named pairs binding function
// parameters and results:
//
//	NAMED := NAME " " EXPR { "," NAME " " EXPR }
//
// where NAME is a parameter name, a named result, or the keyword "return"
// for a function's single unnamed result.

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// baseDim indexes one base dimension of the unit algebra.
type baseDim int

const (
	dimMeter baseDim = iota
	dimSecond
	dimAmpere
	dimTesla
	dimRadian
	dimDecibel
	dimScore
	numDims
)

// dimNames renders each base dimension.
var dimNames = [numDims]string{"m", "s", "A", "T", "rad", "dB", "score"}

// dims is a dimension vector: one integer exponent per base dimension.
// The zero value is dimensionless.
type dims [numDims]int8

// Unit is a physical unit: a dimension vector and a scale relative to the
// coherent base unit of that vector (cm = {Scale: 0.01, Dims: m¹}).
type Unit struct {
	// Scale is the multiplier to the coherent base unit.
	Scale float64
	// Dims is the dimension vector.
	Dims dims
}

// Dimensionless is the unit of pure numbers and ratios.
var Dimensionless = Unit{Scale: 1}

// Mul returns the product unit u·v: dimensions add, scales multiply.
func (u Unit) Mul(v Unit) Unit {
	out := Unit{Scale: u.Scale * v.Scale}
	for i := range out.Dims {
		out.Dims[i] = u.Dims[i] + v.Dims[i]
	}
	return out
}

// Div returns the quotient unit u/v: dimensions subtract, scales divide.
func (u Unit) Div(v Unit) Unit {
	out := Unit{Scale: u.Scale / v.Scale}
	for i := range out.Dims {
		out.Dims[i] = u.Dims[i] - v.Dims[i]
	}
	return out
}

// Pow returns u raised to the integer power n.
func (u Unit) Pow(n int) Unit {
	out := Unit{Scale: math.Pow(u.Scale, float64(n))}
	for i := range out.Dims {
		out.Dims[i] = u.Dims[i] * int8(n)
	}
	return out
}

// Sqrt returns the square root of u. It succeeds only when every exponent
// is even (so sqrt(m²) = m, but sqrt(m) has no unit in the algebra).
func (u Unit) Sqrt() (Unit, bool) {
	out := Unit{Scale: math.Sqrt(u.Scale)}
	for i := range u.Dims {
		if u.Dims[i]%2 != 0 {
			return Unit{}, false
		}
		out.Dims[i] = u.Dims[i] / 2
	}
	return out, true
}

// Equal reports whether u and v agree in both dimensions and scale — the
// condition for the two quantities to be addable or comparable.
func (u Unit) Equal(v Unit) bool {
	return u.Dims == v.Dims && scaleEq(u.Scale, v.Scale)
}

// SameDims reports whether u and v share a dimension vector (possibly at
// different scales, like cm and m).
func (u Unit) SameDims(v Unit) bool { return u.Dims == v.Dims }

// scaleEq compares scale factors with a relative tolerance, absorbing the
// rounding of scale products along different composition orders.
func scaleEq(a, b float64) bool {
	if a == b { //lint:allow floatcmp exact-equality fast path before the relative test
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= 1e-9*m
}

// namedUnits are the directly spellable units of the grammar.
var namedUnits = map[string]Unit{
	"m":     baseUnit(dimMeter),
	"s":     baseUnit(dimSecond),
	"A":     baseUnit(dimAmpere),
	"T":     baseUnit(dimTesla),
	"Hz":    hertz(),
	"rad":   baseUnit(dimRadian),
	"dB":    baseUnit(dimDecibel),
	"score": baseUnit(dimScore),
	"deg":   {Scale: math.Pi / 180, Dims: dimVec(dimRadian)},
}

// prefixable are the bases an SI prefix may attach to.
var prefixable = map[string]Unit{
	"m": baseUnit(dimMeter), "s": baseUnit(dimSecond), "A": baseUnit(dimAmpere),
	"T": baseUnit(dimTesla), "Hz": hertz(), "rad": baseUnit(dimRadian),
	"dB": baseUnit(dimDecibel),
}

// siPrefixes maps prefix runes to their scale.
var siPrefixes = map[rune]float64{
	'n': 1e-9, 'u': 1e-6, 'µ': 1e-6, 'c': 1e-2, 'm': 1e-3,
	'k': 1e3, 'M': 1e6, 'G': 1e9,
}

func baseUnit(d baseDim) Unit { return Unit{Scale: 1, Dims: dimVec(d)} }

// hertz is s^-1: representing Hz as derived lets idiomatic rate algebra
// (t := i / rateHz) infer seconds instead of a bogus distinct dimension.
func hertz() Unit {
	var v dims
	v[dimSecond] = -1
	return Unit{Scale: 1, Dims: v}
}

func dimVec(d baseDim) dims {
	var v dims
	v[d] = 1
	return v
}

// ParseUnit parses one unit expression of the grammar ("cm", "uT/s",
// "m/s^2", "A*m^2", "dimensionless"). The keyword "any" is not a unit;
// callers that accept it use ParseUnitTag.
func ParseUnit(s string) (Unit, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Unit{}, fmt.Errorf("analysis: empty unit expression")
	}
	if s == "dimensionless" || s == "1" {
		return Dimensionless, nil
	}
	out := Dimensionless
	rest := s
	div := false
	for len(rest) > 0 {
		i := strings.IndexAny(rest, "*/·")
		var tok string
		nextDiv := false
		if i < 0 {
			tok, rest = rest, ""
		} else {
			tok = rest[:i]
			op := rest[i:]
			nextDiv = op[0] == '/'
			_, w := opWidth(op)
			rest = rest[i+w:]
		}
		u, err := parseTerm(tok)
		if err != nil {
			return Unit{}, err
		}
		if div {
			out = out.Div(u)
		} else {
			out = out.Mul(u)
		}
		div = nextDiv
		if i >= 0 && rest == "" {
			return Unit{}, fmt.Errorf("analysis: unit expression %q ends in an operator", s)
		}
	}
	return out, nil
}

// opWidth returns the operator rune at the head of s and its byte width
// ('·' is multi-byte).
func opWidth(s string) (rune, int) {
	for _, r := range s {
		return r, len(string(r))
	}
	return 0, 0
}

// parseTerm parses one BASE["^" INT] term.
func parseTerm(tok string) (Unit, error) {
	tok = strings.TrimSpace(tok)
	if tok == "" {
		return Unit{}, fmt.Errorf("analysis: empty unit term")
	}
	base, expStr, hasExp := strings.Cut(tok, "^")
	u, err := parseBase(base)
	if err != nil {
		return Unit{}, err
	}
	if !hasExp {
		return u, nil
	}
	n, err := strconv.Atoi(expStr)
	if err != nil {
		return Unit{}, fmt.Errorf("analysis: bad exponent in unit term %q", tok)
	}
	return u.Pow(n), nil
}

// parseBase resolves a named unit, trying an SI prefix when the bare name
// is unknown ("cm" = c + m, "kHz" = k + Hz, "uT" = u + T).
func parseBase(s string) (Unit, error) {
	if u, ok := namedUnits[s]; ok {
		return u, nil
	}
	for _, r := range s {
		scale, ok := siPrefixes[r]
		rest := s[len(string(r)):]
		if ok {
			if u, ok := prefixable[rest]; ok {
				u.Scale *= scale
				return u, nil
			}
		}
		break
	}
	return Unit{}, fmt.Errorf("analysis: unknown unit %q", s)
}

// String renders the unit, preferring a conventional name (cm, µT/s)
// over the raw scale-and-dimensions form.
func (u Unit) String() string {
	for _, n := range displayUnits {
		if u.Equal(n.unit) {
			return n.name
		}
	}
	var num, den []string
	for i := range u.Dims {
		switch e := u.Dims[i]; {
		case e == 1:
			num = append(num, dimNames[i])
		case e > 1:
			num = append(num, fmt.Sprintf("%s^%d", dimNames[i], e))
		case e == -1:
			den = append(den, dimNames[i])
		case e < -1:
			den = append(den, fmt.Sprintf("%s^%d", dimNames[i], -e))
		}
	}
	s := strings.Join(num, "*")
	if s == "" {
		s = "1"
	}
	if len(den) > 0 {
		s += "/" + strings.Join(den, "/")
	}
	if !scaleEq(u.Scale, 1) {
		s = fmt.Sprintf("%g·%s", u.Scale, s)
	}
	return s
}

// displayUnits is the preference order for rendering diagnostics.
var displayUnits = []struct {
	name string
	unit Unit
}{
	{"dimensionless", Dimensionless},
	{"m", mustUnit("m")}, {"cm", mustUnit("cm")}, {"mm", mustUnit("mm")}, {"km", mustUnit("km")},
	{"s", mustUnit("s")}, {"ms", mustUnit("ms")}, {"µs", mustUnit("us")},
	{"Hz", mustUnit("Hz")}, {"kHz", mustUnit("kHz")},
	{"T", mustUnit("T")}, {"µT", mustUnit("uT")}, {"mT", mustUnit("mT")},
	{"rad", mustUnit("rad")}, {"deg", mustUnit("deg")},
	{"dB", mustUnit("dB")}, {"score", mustUnit("score")}, {"A", mustUnit("A")},
	{"µT/s", mustUnit("uT/s")}, {"µT/m", mustUnit("uT/m")},
	{"m/s", mustUnit("m/s")}, {"m/s^2", mustUnit("m/s^2")},
	{"rad/s", mustUnit("rad/s")}, {"A*m^2", mustUnit("A*m^2")},
	{"cm/m", mustUnit("cm/m")},
}

func mustUnit(s string) Unit {
	u, err := ParseUnit(s)
	if err != nil {
		panic("analysis: bad display unit: " + err.Error()) //lint:allow nopanic init-time table of literals
	}
	return u
}

// DeclUnit is a declared unit annotation: either a concrete Unit or the
// explicit "any" wildcard.
type DeclUnit struct {
	// Any marks a deliberately polymorphic quantity.
	Any bool
	// Unit is the concrete unit when Any is false.
	Unit Unit
}

// UnitTag is one parsed "unit:" comment line: either a bare expression
// (fields, consts, vars) or named parameter/result bindings (func docs).
type UnitTag struct {
	// Bare is set for the bare-expression form.
	Bare *DeclUnit
	// Named holds the name→unit pairs of the named form, in source order.
	Named []NamedUnit
}

// NamedUnit binds one parameter or result name to a declared unit.
type NamedUnit struct {
	// Name is the parameter name, result name, or "return".
	Name string
	// Unit is the declared unit.
	Unit DeclUnit
}

// unitTagMarker is the comment marker beginning a machine-readable tag
// line.
const unitTagMarker = "unit:"

// CutUnitTag returns the body of a tag line ("cm", "t s") when the
// trimmed comment line starts with the marker.
func CutUnitTag(line string) (string, bool) {
	line = strings.TrimSpace(line)
	rest, ok := strings.CutPrefix(line, unitTagMarker)
	if !ok {
		return "", false
	}
	return strings.TrimSpace(rest), true
}

// ParseUnitTag parses the body of one tag line.
func ParseUnitTag(body string) (UnitTag, error) {
	body = strings.TrimSpace(body)
	if body == "" {
		return UnitTag{}, fmt.Errorf("analysis: empty unit tag")
	}
	parts := strings.Split(body, ",")
	var tag UnitTag
	for _, part := range parts {
		fields := strings.Fields(part)
		switch len(fields) {
		case 0:
			return UnitTag{}, fmt.Errorf("analysis: empty clause in unit tag %q", body)
		case 1:
			if len(parts) > 1 {
				return UnitTag{}, fmt.Errorf("analysis: bare unit %q mixed with other clauses", fields[0])
			}
			du, err := parseDeclUnit(fields[0])
			if err != nil {
				return UnitTag{}, err
			}
			tag.Bare = &du
		case 2:
			if !isIdent(fields[0]) {
				return UnitTag{}, fmt.Errorf("analysis: bad name %q in unit tag", fields[0])
			}
			du, err := parseDeclUnit(fields[1])
			if err != nil {
				return UnitTag{}, err
			}
			tag.Named = append(tag.Named, NamedUnit{Name: fields[0], Unit: du})
		default:
			return UnitTag{}, fmt.Errorf("analysis: unit tag clause %q has %d fields, want \"EXPR\" or \"name EXPR\"", strings.TrimSpace(part), len(fields))
		}
	}
	return tag, nil
}

// parseDeclUnit parses one expression, admitting the "any" wildcard.
func parseDeclUnit(s string) (DeclUnit, error) {
	if s == "any" {
		return DeclUnit{Any: true}, nil
	}
	u, err := ParseUnit(s)
	if err != nil {
		return DeclUnit{}, err
	}
	return DeclUnit{Unit: u}, nil
}

// isIdent reports whether s is a plausible Go identifier.
func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// suffixUnits maps the unitsuffix name endings to unit expressions, so a
// parameter or field named cutoffHz or SwingMicroTesla seeds the dataflow
// without a tag.
var suffixUnits = map[string]string{
	"Meters": "m", "Hz": "Hz", "MicroTesla": "uT", "Seconds": "s",
	"Radians": "rad", "Degrees": "deg", "Deg": "deg", "DB": "dB",
	"MS2": "m/s^2", "Ratio": "dimensionless",
}

// UnitFromName infers a unit from a name's suffix ("MaxDistanceMeters" →
// m, "SwingMicroTeslaPerSecond" → µT/s). The "PerSecond" ending divides
// whatever the remaining suffix names by seconds.
func UnitFromName(name string) (Unit, bool) {
	if base, ok := strings.CutSuffix(name, "PerSecond"); ok {
		if u, ok := UnitFromName(base); ok {
			return u.Div(namedUnits["s"]), true
		}
		return Unit{}, false
	}
	for suffix, expr := range suffixUnits {
		if strings.HasSuffix(name, suffix) {
			u, err := ParseUnit(expr)
			if err != nil {
				return Unit{}, false
			}
			return u, true
		}
	}
	return Unit{}, false
}
