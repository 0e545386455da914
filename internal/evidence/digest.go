// Package evidence makes retained decision traces portable and
// verifiable: it serializes one decision (or a set of decisions) from the
// flight recorder into a self-contained, digest-chained evidence pack — a
// zip holding the verdicts, the full evidence-carrying span trees, the
// raw (or privacy-redacted) session inputs and the content digests of
// every model the cascade consulted. A pack can be verified offline
// member-by-member against its manifest chain, diffed stage-by-stage
// against another pack, and replayed through a rebuilt pipeline to
// reproduce the original verdict bit-for-bit — turning a production
// incident into a regression test.
//
// The package is the single normalizing path for content digests in the
// tree: everything that hashes model bytes, session bytes or pack members
// goes through Digest / NewDigester, and the digesthex analyzer in
// voiceguard-lint flags raw hex-encoding of hash sums anywhere else.
package evidence

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"math"
)

// DigestPrefix tags every canonical content digest with its algorithm, so
// a future algorithm migration can coexist with sha256 packs.
const DigestPrefix = "sha256:"

// digestHexLen is the hex length of a sha256 sum.
const digestHexLen = 2 * sha256.Size

// Digest returns the canonical content digest of data:
// "sha256:" + 64 lowercase hex characters.
func Digest(data []byte) string {
	sum := sha256.Sum256(data)
	return DigestPrefix + hex.EncodeToString(sum[:])
}

// Digester streams data into a canonical content digest — the io.Writer
// form of Digest for members too large to buffer.
type Digester struct {
	h hash.Hash
	n int64
}

// NewDigester returns an empty streaming digester.
func NewDigester() *Digester {
	return &Digester{h: sha256.New()}
}

// Write implements io.Writer.
func (d *Digester) Write(p []byte) (int, error) {
	n, err := d.h.Write(p)
	d.n += int64(n)
	return n, err
}

// Size returns the number of bytes written so far.
func (d *Digester) Size() int64 { return d.n }

// Sum returns the canonical digest of everything written so far.
func (d *Digester) Sum() string {
	return DigestPrefix + hex.EncodeToString(d.h.Sum(nil))
}

// DigestReader digests r to exhaustion, returning the canonical digest
// and the byte count.
func DigestReader(r io.Reader) (string, int64, error) {
	d := NewDigester()
	if _, err := io.Copy(d, r); err != nil {
		return "", 0, fmt.Errorf("evidence: digesting stream: %w", err)
	}
	return d.Sum(), d.Size(), nil
}

// ValidDigest reports whether s is a well-formed canonical digest.
func ValidDigest(s string) bool {
	if len(s) != len(DigestPrefix)+digestHexLen || s[:len(DigestPrefix)] != DigestPrefix {
		return false
	}
	for i := len(DigestPrefix); i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ChainDigest advances a manifest digest chain by one member: the new
// link commits to the previous link, the member's name and the member's
// own content digest, so reordering, renaming or replacing any member
// changes every later link and the root.
func ChainDigest(prev, name, memberDigest string) string {
	return Digest([]byte(prev + "\n" + name + "\n" + memberDigest + "\n"))
}

// ChainSeed is the first link of every manifest chain: the digest of the
// empty byte string, so an empty pack still has a well-defined root.
func ChainSeed() string { return Digest(nil) }

// FloatBits renders a float64 as the 16-hex IEEE-754 bit pattern — the
// lossless form pack decisions carry next to the human-readable score so
// replay equality is bit-exact, not printf-exact.
func FloatBits(f float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(f))
}
