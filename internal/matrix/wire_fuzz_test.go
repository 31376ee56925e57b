package matrix

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzReadCSRBinary checks that the wire-format parser never panics and
// that anything it accepts is a structurally valid matrix whose encoding,
// through either of the encoder's array paths, is exactly the accepted
// bytes. The seed corpus covers valid encodings, one whose every array spans
// several chunks, plus the header-level corruptions the unit tests pin
// individually.
func FuzzReadCSRBinary(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for _, m := range []*CSR{
		NewCSR(0, 0),
		Identity(4),
		Random(7, 9, 0.4, rng),
		// Every array crosses a chunk boundary, so decoding grows each
		// destination more than once.
		RandomWithDegree(wireChunk/8+5, 16, 3, rng),
	} {
		var buf bytes.Buffer
		if err := WriteCSRBinary(&buf, m); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	var buf bytes.Buffer
	_ = WriteCSRBinary(&buf, Identity(3))
	good := buf.Bytes()
	truncated := append([]byte(nil), good[:len(good)-5]...)
	f.Add(truncated)
	badMagic := append([]byte(nil), good...)
	badMagic[0] = 'Z'
	f.Add(badMagic)
	bomb := append([]byte(nil), good[:wireHeaderSize]...)
	bomb[28] = 0xff // claims ~10^12 nonzeros with no payload
	f.Add(bomb)

	f.Fuzz(func(t *testing.T, data []byte) {
		lim := &ReadLimits{MaxRows: 1 << 16, MaxCols: 1 << 16, MaxNNZ: 1 << 20}
		m, err := ReadCSRBinaryLimited(bytes.NewReader(data), lim)
		if err != nil {
			return // rejecting malformed input is fine; panicking is not
		}
		if err := m.Validate(); err != nil {
			t.Fatalf("parser accepted invalid matrix: %v", err)
		}
		// The encoding is canonical: an accepted stream is the one
		// encoding of what it decodes to, byte for byte, on either path.
		native, elementwise := encodeBothPaths(t, m)
		for _, out := range []*writeCounter{native, elementwise} {
			if !bytes.Equal(out.Bytes(), data) {
				t.Fatalf("accepted %d bytes that re-encode to %d different bytes (native path %v)", len(data), out.Len(), out == native)
			}
		}
	})
}
