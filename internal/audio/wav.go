package audio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
)

// WAV serialization for 16-bit mono PCM. The client/server protocol ships
// audio as WAV payloads, matching what a real capture app would upload.

// ErrBadWAV is returned for malformed WAV input.
var ErrBadWAV = errors.New("audio: malformed WAV data")

// WriteWAV encodes the signal as a 16-bit mono PCM WAV stream. Samples are
// clipped to [-1, 1].
func WriteWAV(w io.Writer, s *Signal) error {
	if s.Rate <= 0 {
		return fmt.Errorf("audio: invalid sample rate %v", s.Rate)
	}
	dataLen := len(s.Samples) * 2
	var hdr [44]byte
	copy(hdr[0:4], "RIFF")
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(36+dataLen))
	copy(hdr[8:12], "WAVE")
	copy(hdr[12:16], "fmt ")
	binary.LittleEndian.PutUint32(hdr[16:20], 16)
	binary.LittleEndian.PutUint16(hdr[20:22], 1) // PCM
	binary.LittleEndian.PutUint16(hdr[22:24], 1) // mono
	rate := uint32(math.Round(s.Rate))
	binary.LittleEndian.PutUint32(hdr[24:28], rate)
	binary.LittleEndian.PutUint32(hdr[28:32], rate*2) // byte rate
	binary.LittleEndian.PutUint16(hdr[32:34], 2)      // block align
	binary.LittleEndian.PutUint16(hdr[34:36], 16)     // bits per sample
	copy(hdr[36:40], "data")
	binary.LittleEndian.PutUint32(hdr[40:44], uint32(dataLen))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("audio: writing WAV header: %w", err)
	}
	buf := make([]byte, 2*len(s.Samples))
	for i, v := range s.Samples {
		if v > 1 {
			v = 1
		} else if v < -1 {
			v = -1
		}
		binary.LittleEndian.PutUint16(buf[2*i:], uint16(int16(math.Round(v*32767))))
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("audio: writing WAV samples: %w", err)
	}
	return nil
}

// ReadWAV decodes a 16-bit mono PCM WAV stream produced by WriteWAV (or any
// compatible encoder). It reads r to its end and decodes that with
// DecodeWAV.
func ReadWAV(r io.Reader) (*Signal, error) {
	b, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadWAV, err)
	}
	return DecodeWAV(b)
}

// DecodeWAV decodes a 16-bit mono PCM WAV file held in b, converting the
// samples straight from it. A truncated part fails with the error
// io.ReadFull would give reading it from a stream: io.EOF when nothing
// of it is left, else io.ErrUnexpectedEOF; a truncated chunk it skips
// fails with io.EOF.
func DecodeWAV(b []byte) (*Signal, error) {
	hdr, b, err := cut(b, 12)
	if err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrBadWAV, err)
	}
	if string(hdr[0:4]) != "RIFF" || string(hdr[8:12]) != "WAVE" {
		return nil, fmt.Errorf("%w: missing RIFF/WAVE magic", ErrBadWAV)
	}
	var (
		rate   uint32
		sawFmt bool
	)
	for {
		var chunk, body []byte
		if chunk, b, err = cut(b, 8); err != nil {
			return nil, fmt.Errorf("%w: truncated chunk header: %v", ErrBadWAV, err)
		}
		id := string(chunk[0:4])
		size := binary.LittleEndian.Uint32(chunk[4:8])
		switch id {
		case "fmt ":
			if size < 16 {
				return nil, fmt.Errorf("%w: fmt chunk too small", ErrBadWAV)
			}
			if body, b, err = cut(b, uint64(size)); err != nil {
				return nil, fmt.Errorf("%w: truncated fmt chunk: %v", ErrBadWAV, err)
			}
			format := binary.LittleEndian.Uint16(body[0:2])
			channels := binary.LittleEndian.Uint16(body[2:4])
			rate = binary.LittleEndian.Uint32(body[4:8])
			bits := binary.LittleEndian.Uint16(body[14:16])
			if format != 1 {
				return nil, fmt.Errorf("%w: unsupported format %d (want PCM)", ErrBadWAV, format)
			}
			if channels != 1 {
				return nil, fmt.Errorf("%w: unsupported channel count %d (want mono)", ErrBadWAV, channels)
			}
			if bits != 16 {
				return nil, fmt.Errorf("%w: unsupported bit depth %d (want 16)", ErrBadWAV, bits)
			}
			sawFmt = true
		case "data":
			if !sawFmt {
				return nil, fmt.Errorf("%w: data chunk before fmt", ErrBadWAV)
			}
			if body, _, err = cut(b, uint64(size)); err != nil {
				return nil, fmt.Errorf("%w: truncated data chunk: %v", ErrBadWAV, err)
			}
			s := &Signal{Samples: make([]float64, len(body)/2), Rate: float64(rate)}
			for i := range s.Samples {
				v := int16(binary.LittleEndian.Uint16(body[2*i:]))
				s.Samples[i] = float64(v) / 32767
			}
			return s, nil
		default:
			// Skip unknown chunks (LIST, etc.).
			if uint64(size) > uint64(len(b)) {
				return nil, fmt.Errorf("%w: truncated %q chunk: %v", ErrBadWAV, id, io.EOF)
			}
			b = b[size:]
		}
	}
}

// cut splits the first n bytes off b.
func cut(b []byte, n uint64) (head, rest []byte, err error) {
	switch {
	case n <= uint64(len(b)):
		return b[:n], b[n:], nil
	case len(b) == 0:
		return nil, nil, io.EOF
	}
	return nil, nil, io.ErrUnexpectedEOF
}
