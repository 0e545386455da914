package speech

import "fmt"

// Phoneme is one steady-state articulation target. The synthesizer
// interpolates formant tracks linearly between consecutive phonemes.
type Phoneme struct {
	// Name is the ARPAbet-like label, for debugging.
	Name string
	// Dur is the nominal duration in seconds at Rate = 1.
	Dur float64
	// F holds the first four formant center frequencies in Hz for a
	// reference (TractScale = 1) speaker.
	F [4]float64
	// BW holds the corresponding formant bandwidths in Hz.
	BW [4]float64
	// Voiced selects glottal excitation; unvoiced phonemes use noise.
	Voiced bool
	// Frication is the noise excitation level in [0, 1].
	Frication float64
	// Amp is the overall segment amplitude in [0, 1].
	Amp float64
}

// The phoneme inventory covers what the digit vocabulary needs. Formant
// targets follow standard vowel/consonant tables (Peterson–Barney style).
var phonemes = map[string]Phoneme{
	// Vowels.
	"IY": {Name: "IY", Dur: 0.12, F: [4]float64{270, 2290, 3010, 3700}, BW: [4]float64{60, 90, 150, 200}, Voiced: true, Amp: 1.0},
	"IH": {Name: "IH", Dur: 0.09, F: [4]float64{390, 1990, 2550, 3600}, BW: [4]float64{60, 90, 150, 200}, Voiced: true, Amp: 1.0},
	"EH": {Name: "EH", Dur: 0.10, F: [4]float64{530, 1840, 2480, 3500}, BW: [4]float64{60, 90, 150, 200}, Voiced: true, Amp: 1.0},
	"AE": {Name: "AE", Dur: 0.12, F: [4]float64{660, 1720, 2410, 3500}, BW: [4]float64{70, 100, 160, 210}, Voiced: true, Amp: 1.0},
	"AH": {Name: "AH", Dur: 0.09, F: [4]float64{520, 1190, 2390, 3400}, BW: [4]float64{70, 100, 160, 210}, Voiced: true, Amp: 1.0},
	"AA": {Name: "AA", Dur: 0.12, F: [4]float64{730, 1090, 2440, 3400}, BW: [4]float64{80, 110, 170, 220}, Voiced: true, Amp: 1.0},
	"AO": {Name: "AO", Dur: 0.12, F: [4]float64{570, 840, 2410, 3300}, BW: [4]float64{80, 110, 170, 220}, Voiced: true, Amp: 1.0},
	"UW": {Name: "UW", Dur: 0.11, F: [4]float64{300, 870, 2240, 3200}, BW: [4]float64{60, 90, 150, 200}, Voiced: true, Amp: 1.0},
	"ER": {Name: "ER", Dur: 0.11, F: [4]float64{490, 1350, 1690, 3300}, BW: [4]float64{70, 100, 160, 210}, Voiced: true, Amp: 1.0},
	"AY": {Name: "AY", Dur: 0.15, F: [4]float64{660, 1200, 2550, 3400}, BW: [4]float64{80, 100, 160, 210}, Voiced: true, Amp: 1.0},
	"OW": {Name: "OW", Dur: 0.13, F: [4]float64{570, 900, 2400, 3300}, BW: [4]float64{70, 100, 160, 210}, Voiced: true, Amp: 1.0},
	// Sonorant consonants.
	"W": {Name: "W", Dur: 0.06, F: [4]float64{300, 610, 2200, 3200}, BW: [4]float64{70, 100, 160, 210}, Voiced: true, Amp: 0.7},
	"R": {Name: "R", Dur: 0.06, F: [4]float64{330, 1060, 1380, 3100}, BW: [4]float64{70, 100, 160, 210}, Voiced: true, Amp: 0.7},
	"N": {Name: "N", Dur: 0.06, F: [4]float64{280, 1700, 2600, 3300}, BW: [4]float64{90, 150, 200, 250}, Voiced: true, Amp: 0.5},
	"L": {Name: "L", Dur: 0.06, F: [4]float64{360, 1300, 2700, 3300}, BW: [4]float64{80, 120, 180, 230}, Voiced: true, Amp: 0.6},
	// Fricatives.
	"F":  {Name: "F", Dur: 0.08, F: [4]float64{1100, 2100, 3500, 4200}, BW: [4]float64{300, 350, 400, 450}, Frication: 0.35, Amp: 0.4},
	"V":  {Name: "V", Dur: 0.06, F: [4]float64{1000, 2000, 3400, 4100}, BW: [4]float64{250, 300, 350, 400}, Voiced: true, Frication: 0.2, Amp: 0.5},
	"S":  {Name: "S", Dur: 0.09, F: [4]float64{2500, 4000, 5200, 6000}, BW: [4]float64{400, 450, 500, 550}, Frication: 0.5, Amp: 0.45},
	"Z":  {Name: "Z", Dur: 0.07, F: [4]float64{2400, 3900, 5100, 5900}, BW: [4]float64{350, 400, 450, 500}, Voiced: true, Frication: 0.3, Amp: 0.5},
	"TH": {Name: "TH", Dur: 0.07, F: [4]float64{1400, 2300, 3600, 4300}, BW: [4]float64{350, 400, 450, 500}, Frication: 0.3, Amp: 0.35},
	"HH": {Name: "HH", Dur: 0.05, F: [4]float64{600, 1600, 2600, 3500}, BW: [4]float64{250, 300, 350, 400}, Frication: 0.25, Amp: 0.35},
	// Stops (release bursts approximated by short frication).
	"T": {Name: "T", Dur: 0.04, F: [4]float64{2200, 3300, 4500, 5300}, BW: [4]float64{400, 450, 500, 550}, Frication: 0.45, Amp: 0.35},
	"K": {Name: "K", Dur: 0.04, F: [4]float64{1700, 2500, 3800, 4700}, BW: [4]float64{350, 400, 450, 500}, Frication: 0.4, Amp: 0.35},
	// Silence/pause.
	"SIL": {Name: "SIL", Dur: 0.05, F: [4]float64{500, 1500, 2500, 3500}, BW: [4]float64{200, 250, 300, 350}, Amp: 0},
}

// digitPhonemes maps each decimal digit to its phoneme sequence.
var digitPhonemes = map[rune][]string{
	'0': {"Z", "IY", "R", "OW"},
	'1': {"W", "AH", "N"},
	'2': {"T", "UW"},
	'3': {"TH", "R", "IY"},
	'4': {"F", "AO", "R"},
	'5': {"F", "AY", "V"},
	'6': {"S", "IH", "K", "S"},
	'7': {"S", "EH", "V", "AH", "N"},
	'8': {"EH", "IH", "T"},
	'9': {"N", "AY", "N"},
}

// DigitsToPhonemes expands a digit string ("472913") into a phoneme
// sequence with inter-digit pauses. It returns an error on any non-digit
// rune.
func DigitsToPhonemes(digits string) ([]Phoneme, error) {
	var out []Phoneme
	out = append(out, phonemes["SIL"])
	for _, r := range digits {
		names, ok := digitPhonemes[r]
		if !ok {
			return nil, fmt.Errorf("speech: %q is not a digit", r)
		}
		for _, n := range names {
			out = append(out, phonemes[n])
		}
		out = append(out, phonemes["SIL"])
	}
	return out, nil
}
