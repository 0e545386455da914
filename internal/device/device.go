// Package device catalogs the hardware of the paper's evaluation: the
// smartphone testbeds of Table II and the 25 loudspeakers of Table IV
// (plus the unconventional electrostatic/piezoelectric speakers discussed
// in §VII). Each loudspeaker entry carries the physical parameters its
// simulation needs: permanent-magnet dipole moment, voice-coil gain and
// effective cone radius.
package device

import (
	"fmt"

	"voiceguard/internal/geometry"
	"voiceguard/internal/magnetics"
	"voiceguard/internal/sensors"
	"voiceguard/internal/soundfield"
)

// Phone is one smartphone testbed.
type Phone struct {
	// Maker and Model identify the device (Table II).
	Maker, Model string
	// Magnetometer is the onboard magnetometer spec.
	Magnetometer sensors.Spec
	// Accelerometer and Gyroscope are the onboard IMU specs.
	Accelerometer, Gyroscope sensors.Spec
	// MaxPilotHz is the highest usable inaudible pilot frequency found by
	// the calibration procedure the paper cites.
	MaxPilotHz float64
}

// Phones returns the paper's smartphone testbeds (Table II).
func Phones() []Phone {
	base := Phone{
		Magnetometer:  sensors.AK8975(),
		Accelerometer: sensors.PhoneAccelerometer(),
		Gyroscope:     sensors.PhoneGyroscope(),
	}
	nexus5 := base
	nexus5.Maker, nexus5.Model, nexus5.MaxPilotHz = "Google (LG)", "Nexus 5", 20000
	nexus4 := base
	nexus4.Maker, nexus4.Model, nexus4.MaxPilotHz = "Google (LG)", "Nexus 4", 19000
	galaxy := base
	galaxy.Maker, galaxy.Model, galaxy.MaxPilotHz = "Samsung", "Galaxy Nexus", 18500
	return []Phone{nexus5, nexus4, galaxy}
}

// SpeakerClass groups loudspeakers by form factor.
type SpeakerClass int

// Speaker classes evaluated by the paper.
const (
	ClassPCSpeaker SpeakerClass = iota + 1
	ClassPortable
	ClassOutdoor
	ClassFloor
	ClassLaptopInternal
	ClassAllInOneInternal
	ClassPhoneInternal
	ClassEarphone
	ClassElectrostatic
	ClassPiezoelectric
)

// String implements fmt.Stringer.
func (c SpeakerClass) String() string {
	switch c {
	case ClassPCSpeaker:
		return "pc-speaker"
	case ClassPortable:
		return "portable"
	case ClassOutdoor:
		return "outdoor"
	case ClassFloor:
		return "floor"
	case ClassLaptopInternal:
		return "laptop-internal"
	case ClassAllInOneInternal:
		return "all-in-one-internal"
	case ClassPhoneInternal:
		return "phone-internal"
	case ClassEarphone:
		return "earphone"
	case ClassElectrostatic:
		return "electrostatic"
	case ClassPiezoelectric:
		return "piezoelectric"
	default:
		return "unknown"
	}
}

// Loudspeaker is one catalog entry.
type Loudspeaker struct {
	// Maker and Model identify the unit (Table IV).
	Maker, Model string
	// Class is the form factor.
	Class SpeakerClass
	// MagnetMoment is the permanent-magnet dipole moment in A·m².
	// Conventional drivers have one; electrostatic panels do not.
	MagnetMoment float64
	// CoilMomentGain is the voice-coil dynamic moment per unit drive.
	CoilMomentGain float64
	// ConeRadius is the effective radiator radius in meters.
	ConeRadius float64
	// GridMoment is the induced/static moment of an electrostatic
	// panel's metal grids (detectable even without a magnet).
	GridMoment float64
}

// FieldSources returns the magnetic sources of the loudspeaker placed at
// the given position with the given drive function (normalized audio
// amplitude over time; nil for silence).
func (l Loudspeaker) FieldSources(pos geometry.Vec3, drive func(t float64) float64) []magnetics.FieldSource {
	var out []magnetics.FieldSource
	axis := geometry.Vec3{X: 1}
	if l.MagnetMoment > 0 {
		out = append(out, magnetics.Dipole{Position: pos, Moment: axis.Scale(l.MagnetMoment)})
	}
	if l.GridMoment > 0 {
		out = append(out, magnetics.Dipole{Position: pos, Moment: axis.Scale(l.GridMoment)})
	}
	if l.CoilMomentGain > 0 && drive != nil {
		out = append(out, magnetics.VoiceCoil{
			Position:   pos,
			Axis:       axis,
			MomentGain: l.CoilMomentGain,
			Drive:      drive,
		})
	}
	return out
}

// Source returns the loudspeaker's acoustic sound-field model.
func (l Loudspeaker) Source() soundfield.Source {
	name := fmt.Sprintf("%s %s", l.Maker, l.Model)
	switch l.Class {
	case ClassEarphone:
		return soundfield.Earphone()
	case ClassElectrostatic:
		return soundfield.Electrostatic()
	default:
		return soundfield.ConeSpeaker(name, l.ConeRadius)
	}
}

// Catalog returns the paper's 25 evaluated loudspeakers (Table IV).
// Magnet moments are calibrated per class so near-cone fields land in the
// 30–210 µT range the paper measures (Fig. 10 and §VI).
func Catalog() []Loudspeaker {
	mk := func(maker, model string, class SpeakerClass, moment, cone float64) Loudspeaker {
		return Loudspeaker{
			Maker: maker, Model: model, Class: class,
			MagnetMoment:   moment,
			CoilMomentGain: moment * 0.05,
			ConeRadius:     cone,
		}
	}
	return []Loudspeaker{
		mk("Logitech", "LS21 2.1 Stereo", ClassPCSpeaker, 0.085, 0.040),
		mk("Klipsch", "KHO-7 Indoor/Outdoor", ClassOutdoor, 0.140, 0.065),
		mk("Insignia", "NS-OS112 Indoor/Outdoor", ClassOutdoor, 0.120, 0.060),
		mk("Sony", "SRSX2/BLK Portable BT", ClassPortable, 0.060, 0.028),
		mk("Bose", "SoundLink Mini PINK", ClassPortable, 0.070, 0.026),
		mk("Bose", "151 SE Environmental", ClassOutdoor, 0.130, 0.057),
		mk("Yamaha", "NS-AW190BL Outdoor 5\"", ClassOutdoor, 0.110, 0.063),
		mk("Pioneer", "SP-FS52 Floor 5-1/4\"", ClassFloor, 0.160, 0.067),
		mk("HP", "D9J19AT 2.0 System", ClassPCSpeaker, 0.055, 0.030),
		mk("GPX", "HT12B 2.1 System", ClassPCSpeaker, 0.065, 0.035),
		mk("Coby", "CSMP67 2.1 Home Audio", ClassPCSpeaker, 0.070, 0.038),
		mk("Acoustic Audio", "AA2101 2.1", ClassPCSpeaker, 0.080, 0.042),
		mk("Apple", "Macbook Pro A1286 Internal", ClassLaptopInternal, 0.018, 0.014),
		mk("Apple", "Macbook Air A1466 Internal", ClassLaptopInternal, 0.014, 0.011),
		mk("Apple", "iMac MB952XX/A Internal", ClassAllInOneInternal, 0.035, 0.025),
		mk("HP", "6510b Internal GM949", ClassLaptopInternal, 0.015, 0.012),
		mk("Toshiba", "Satellite C55-B5101 Internal", ClassLaptopInternal, 0.016, 0.013),
		mk("Dell", "Inspiron I5558-2571BLK Internal", ClassLaptopInternal, 0.017, 0.013),
		mk("Apple", "iPhone 6 Plus A1524 Internal", ClassPhoneInternal, 0.009, 0.007),
		mk("Apple", "iPhone 5S A1533 Internal", ClassPhoneInternal, 0.008, 0.006),
		mk("Apple", "iPhone 4S A1387 Internal", ClassPhoneInternal, 0.008, 0.006),
		mk("LG", "Nexus 5 LG-D820 Internal", ClassPhoneInternal, 0.008, 0.006),
		mk("LG", "Nexus 4 LG-E960 Internal", ClassPhoneInternal, 0.008, 0.006),
		mk("Samsung", "Galaxy S EHS44 Earphones", ClassEarphone, 0.0008, 0.005),
		mk("Apple", "EarPods MD827LL/A", ClassEarphone, 0.0007, 0.005),
	}
}

// Electrostatic returns the §VII electrostatic-panel speaker: no
// permanent magnet, but the charged metal grids still disturb the field
// slightly, and the panel is physically large.
func Electrostatic() Loudspeaker {
	return Loudspeaker{
		Maker: "MartinLogan", Model: "ESL-class panel",
		Class:      ClassElectrostatic,
		GridMoment: 0.004,
		ConeRadius: 0.15,
	}
}

// Piezoelectric returns the §VII piezoelectric speaker: effectively no
// magnetic signature and mediocre audio quality (narrow usable band).
func Piezoelectric() Loudspeaker {
	return Loudspeaker{
		Maker: "Murata", Model: "piezo transducer",
		Class:      ClassPiezoelectric,
		ConeRadius: 0.010,
	}
}
