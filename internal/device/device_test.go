package device

import (
	"math"
	"testing"

	"voiceguard/internal/geometry"
	"voiceguard/internal/magnetics"
)

func TestPhonesMatchTableII(t *testing.T) {
	phones := Phones()
	if len(phones) != 3 {
		t.Fatalf("phones = %d, want 3", len(phones))
	}
	want := map[string]string{
		"Nexus 5":      "Google (LG)",
		"Nexus 4":      "Google (LG)",
		"Galaxy Nexus": "Samsung",
	}
	for _, p := range phones {
		maker, ok := want[p.Model]
		if !ok {
			t.Errorf("unexpected model %q", p.Model)
			continue
		}
		if p.Maker != maker {
			t.Errorf("%s maker = %q, want %q", p.Model, p.Maker, maker)
		}
		if p.Magnetometer.Name != "AK8975" {
			t.Errorf("%s magnetometer = %q", p.Model, p.Magnetometer.Name)
		}
		if p.MaxPilotHz < 16000 {
			t.Errorf("%s pilot %v below the paper's 16 kHz floor", p.Model, p.MaxPilotHz)
		}
	}
}

func TestCatalogMatchesTableIV(t *testing.T) {
	cat := Catalog()
	if len(cat) != 25 {
		t.Fatalf("catalog = %d entries, want 25", len(cat))
	}
	classes := make(map[SpeakerClass]int)
	for _, l := range cat {
		classes[l.Class]++
		if l.MagnetMoment <= 0 {
			t.Errorf("%s %s: Table IV speakers are all conventional", l.Maker, l.Model)
		}
		if l.ConeRadius <= 0 {
			t.Errorf("%s %s: missing cone radius", l.Maker, l.Model)
		}
	}
	// The table spans PC, portable, outdoor, floor, laptop, all-in-one,
	// phone and earphone classes.
	for _, c := range []SpeakerClass{
		ClassPCSpeaker, ClassPortable, ClassOutdoor, ClassFloor,
		ClassLaptopInternal, ClassAllInOneInternal, ClassPhoneInternal, ClassEarphone,
	} {
		if classes[c] == 0 {
			t.Errorf("class %v missing from catalog", c)
		}
	}
	if classes[ClassEarphone] != 2 {
		t.Errorf("earphones = %d, want 2", classes[ClassEarphone])
	}
}

func TestCatalogFieldsInPaperRange(t *testing.T) {
	// Near the cone (~3–5 cm from the magnet), conventional speakers
	// other than earphones should emit fields in the paper's observed
	// 30–210 µT window (Fig. 10); earphones are far weaker — that is the
	// paper's motivation for the sound-field component.
	for _, l := range Catalog() {
		d := magnetics.Dipole{Moment: geometry.Vec3{X: l.MagnetMoment}}
		b := d.FieldAt(geometry.Vec3{X: 0.035}, 0).Norm()
		if l.Class == ClassEarphone {
			if b > 30 {
				t.Errorf("%s %s: earphone field %v µT too strong", l.Maker, l.Model, b)
			}
			continue
		}
		if b < 30 || b > 800 {
			t.Errorf("%s %s: near-cone field %.1f µT outside plausible window", l.Maker, l.Model, b)
		}
	}
}

func TestFieldSources(t *testing.T) {
	l := Catalog()[0]
	pos := geometry.Vec3{X: 0.1}
	drive := func(t float64) float64 { return math.Sin(t) }
	srcs := l.FieldSources(pos, drive)
	if len(srcs) != 2 {
		t.Fatalf("sources = %d, want magnet+coil", len(srcs))
	}
	// Without drive: magnet only.
	if n := len(l.FieldSources(pos, nil)); n != 1 {
		t.Errorf("silent sources = %d, want 1", n)
	}
	esl := Electrostatic()
	if esl.MagnetMoment > 0 {
		t.Error("electrostatic should not be conventional")
	}
	if n := len(esl.FieldSources(pos, drive)); n != 1 {
		t.Errorf("ESL sources = %d, want 1 (grids)", n)
	}
	piezo := Piezoelectric()
	if n := len(piezo.FieldSources(pos, drive)); n != 0 {
		t.Errorf("piezo sources = %d, want 0", n)
	}
}

func TestSpeakerSource(t *testing.T) {
	for _, l := range Catalog() {
		src := l.Source()
		if src == nil {
			t.Fatalf("%s %s: nil source", l.Maker, l.Model)
		}
		if l.Class == ClassEarphone && src.Name() != "earphone" {
			t.Errorf("%s %s: source = %q", l.Maker, l.Model, src.Name())
		}
	}
	if Electrostatic().Source().Name() != "electrostatic-panel" {
		t.Error("ESL source name")
	}
}

func TestSpeakerClassString(t *testing.T) {
	for c := ClassPCSpeaker; c <= ClassPiezoelectric; c++ {
		if c.String() == "unknown" {
			t.Errorf("class %d has no label", c)
		}
	}
	if SpeakerClass(0).String() != "unknown" {
		t.Error("zero class should be unknown")
	}
}
