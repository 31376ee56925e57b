package matrix

import (
	"bytes"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/testalloc"
)

// TestWireRoundTrip decodes every encoding under both array paths: the
// native one, which reads into each array's memory, and the element-wise one,
// which big-endian hosts run.
func TestWireRoundTrip(t *testing.T) {
	defer func(saved bool) { wireNative = saved }(wireNative)
	rng := rand.New(rand.NewSource(7))
	cases := []*CSR{
		NewCSR(0, 0),
		NewCSR(3, 5),
		Identity(17),
		Random(23, 31, 0.2, rng),
		Random(1, 1000, 0.5, rng),
	}
	unsorted := Random(16, 16, 0.3, rng).PermuteCols(randPerm32(16, rng))
	multiChunk := RandomWithDegree(3*wireChunk/8+5, 16, 3, rng)
	cases = append(cases, unsorted, multiChunk)
	for _, m := range cases {
		var buf bytes.Buffer
		if err := WriteCSRBinary(&buf, m); err != nil {
			t.Fatalf("%v: write: %v", m, err)
		}
		if got, want := int64(buf.Len()), WireSize(m); got != want {
			t.Fatalf("%v: encoded %d bytes, WireSize says %d", m, got, want)
		}
		for _, native := range []bool{true, false} {
			wireNative = native
			back, err := ReadCSRBinary(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("%v, native %v: read: %v", m, native, err)
			}
			if back.Sorted != m.Sorted {
				t.Fatalf("%v, native %v: sorted flag flipped to %v", m, native, back.Sorted)
			}
			if !equalStructureAndValues(m, back) {
				t.Fatalf("%v, native %v: round trip changed contents", m, native)
			}
		}
	}
}

func randPerm32(n int, rng *rand.Rand) []int32 {
	p := make([]int32, n)
	for i, v := range rng.Perm(n) {
		p[i] = int32(v)
	}
	return p
}

func equalStructureAndValues(a, b *CSR) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols || a.NNZ() != b.NNZ() {
		return false
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			return false
		}
	}
	for i := range a.ColIdx {
		if a.ColIdx[i] != b.ColIdx[i] || a.Val[i] != b.Val[i] {
			return false
		}
	}
	return true
}

func TestWireRejectsCorruptInput(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := Random(10, 10, 0.3, rng)
	var buf bytes.Buffer
	if err := WriteCSRBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Truncation at every interesting boundary.
	for _, n := range []int{0, 3, wireHeaderSize - 1, wireHeaderSize, wireHeaderSize + 7, len(good) - 1} {
		if _, err := ReadCSRBinary(bytes.NewReader(good[:n])); err == nil {
			t.Errorf("accepted input truncated to %d bytes", n)
		}
	}

	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := map[string][]byte{
		"bad magic":    corrupt(func(b []byte) { b[0] = 'X' }),
		"bad version":  corrupt(func(b []byte) { b[4] = 99 }),
		"huge rows":    corrupt(func(b []byte) { b[8], b[9], b[10], b[11] = 0, 0, 0, 0x80 }), // rows = 2^31
		"negative nnz": corrupt(func(b []byte) { b[31] = 0x80 }),
		// Only bit 0 of the flags means anything, and nothing follows the
		// values: either would give one matrix a second encoding.
		"unknown flag bit": corrupt(func(b []byte) { b[6] |= 0x80 }),
		"trailing bytes":   append(append([]byte(nil), good...), 0, 0),
		// First row pointer nonzero breaks the CSR invariant.
		"bad rowptr": corrupt(func(b []byte) { b[wireHeaderSize] = 1 }),
		// A column index beyond Cols must be rejected by Validate.
		"col out of range": corrupt(func(b []byte) {
			off := wireHeaderSize + (m.Rows+1)*8
			b[off], b[off+1] = 0xff, 0xff
		}),
	}
	for name, b := range cases {
		if _, err := ReadCSRBinary(bytes.NewReader(b)); err == nil {
			t.Errorf("%s: accepted corrupt input", name)
		}
	}

	// A lying Sorted flag on unsorted data must be rejected.
	un := m.PermuteCols(randPerm32(10, rng))
	buf.Reset()
	if err := WriteCSRBinary(&buf, un); err != nil {
		t.Fatal(err)
	}
	lying := buf.Bytes()
	lying[6] |= wireFlagSorted
	if back, err := ReadCSRBinary(bytes.NewReader(lying)); err == nil && !back.IsSortedRows() {
		t.Error("accepted lying sorted flag on unsorted rows")
	}
}

// TestWireHeaderBombFailsFast: a 32-byte header claiming billions of
// nonzeros over an empty body must fail on the first missing chunk, not
// allocate the claimed arrays. (The chunked reader caps the commit at one
// chunk per delivered chunk; run with -test.memprofile to see it.)
func TestWireHeaderBombFailsFast(t *testing.T) {
	var buf bytes.Buffer
	m := NewCSR(1, 1)
	if err := WriteCSRBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:wireHeaderSize]
	// Claim nnz = 2^40 with no payload.
	b[24], b[25], b[26], b[27], b[28], b[29] = 0, 0, 0, 0, 0, 1
	if _, err := ReadCSRBinary(bytes.NewReader(b)); err == nil {
		t.Fatal("accepted header bomb")
	}
}

// TestWireLyingHeaderAllocatesLittle: a header claiming nnz = 2^30 (12 GiB
// of arrays) over a body that ends a few bytes into its column indices
// fails at the first short chunk, having allocated one chunk of scratch and
// what the body delivered — not the claim.
func TestWireLyingHeaderAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSRBinary(&buf, NewCSR(1, 1)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[24], b[25], b[26], b[27] = 0, 0, 0, 0x40                // nnz = 2^30
	b[wireHeaderSize+8+3] = 0x40                              // rowptr[1] = 2^30
	b = append(b[:wireHeaderSize+16], 1, 0, 0, 0, 2, 0, 0, 0) // two column indices
	var err error
	d := testalloc.Bytes(func() { _, err = ReadCSRBinary(bytes.NewReader(b)) })
	if err == nil {
		t.Fatal("accepted a header claiming 2^30 nonzeros over 8 bytes of them")
	}
	if d >= 1<<20 {
		t.Errorf("allocated %d B on a lying header, want under 1 MiB", d)
	}
}

func TestWireReadLimits(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := Random(20, 30, 0.2, rng)
	var buf bytes.Buffer
	if err := WriteCSRBinary(&buf, m); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	for name, lim := range map[string]*ReadLimits{
		"rows": {MaxRows: 19},
		"cols": {MaxCols: 29},
		"nnz":  {MaxNNZ: m.NNZ() - 1},
	} {
		if _, err := ReadCSRBinaryLimited(bytes.NewReader(good), lim); err == nil {
			t.Errorf("limit %s not enforced", name)
		}
	}
	if _, err := ReadCSRBinaryLimited(bytes.NewReader(good),
		&ReadLimits{MaxRows: 20, MaxCols: 30, MaxNNZ: m.NNZ()}); err != nil {
		t.Fatalf("exact-fit limits rejected: %v", err)
	}

	// The Matrix Market reader shares the same limit type.
	mm := "%%MatrixMarket matrix coordinate real general\n5 5 1\n1 1 1.0\n"
	if _, err := ReadMatrixMarketLimited(strings.NewReader(mm), &ReadLimits{MaxRows: 4}); err == nil {
		t.Error("matrix market row limit not enforced")
	}
	if _, err := ReadMatrixMarketLimited(strings.NewReader(mm), &ReadLimits{MaxRows: 5}); err != nil {
		t.Errorf("matrix market exact-fit limit rejected: %v", err)
	}
}

// writeCounter counts the Write calls an encoder makes.
type writeCounter struct {
	bytes.Buffer
	writes int
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.writes++
	return w.Buffer.Write(p)
}

// encodeBothPaths encodes m once through each array path: the native one,
// which writes each array's memory, and the element-wise one, which big-endian
// hosts run. It returns both encodings and the Write counts.
func encodeBothPaths(t testing.TB, m *CSR) (native, elementwise *writeCounter) {
	t.Helper()
	defer func(saved bool) { wireNative = saved }(wireNative)
	native, elementwise = &writeCounter{}, &writeCounter{}
	for _, c := range []struct {
		native bool
		out    *writeCounter
	}{{true, native}, {false, elementwise}} {
		wireNative = c.native
		if err := WriteCSRBinary(c.out, m); err != nil {
			t.Fatal(err)
		}
	}
	return native, elementwise
}

// TestWireEncoderPathsAgree: both array paths write byte-identical output,
// on empty arrays, on arrays that each span several chunks, and on values
// whose bits a conversion could disturb (−0, ±Inf, a NaN with a payload).
// The native path makes one Write per non-empty array after the header.
func TestWireEncoderPathsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	special := &CSR{
		Rows: 2, Cols: 3,
		RowPtr: []int64{0, 2, 4},
		ColIdx: []int32{0, 2, 1, 0},
		Val:    []float64{math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.Float64frombits(0x7ff8000000000001)},
	}
	multiChunk := RandomWithDegree(3*wireChunk/8+5, 16, 3, rng)
	if 4*multiChunk.NNZ() < 3*wireChunk {
		t.Fatalf("column indices span %d bytes, want several %d-byte chunks", 4*multiChunk.NNZ(), wireChunk)
	}
	for _, m := range []*CSR{NewCSR(0, 0), NewCSR(3, 5), special, multiChunk, Random(23, 31, 0.2, rng)} {
		native, elementwise := encodeBothPaths(t, m)
		if !bytes.Equal(native.Bytes(), elementwise.Bytes()) {
			t.Fatalf("%v: native path wrote %d bytes, element-wise %d, and they differ", m, native.Len(), elementwise.Len())
		}
		if got, want := int64(native.Len()), WireSize(m); got != want {
			t.Fatalf("%v: encoded %d bytes, WireSize says %d", m, got, want)
		}
		want := 2
		if m.NNZ() > 0 {
			want = 4
		}
		if native.writes != want {
			t.Errorf("%v: native path made %d writes, want %d", m, native.writes, want)
		}
		back, err := ReadCSRBinary(bytes.NewReader(native.Bytes()))
		if err != nil {
			t.Fatalf("%v: read: %v", m, err)
		}
		for i, v := range m.Val {
			if math.Float64bits(back.Val[i]) != math.Float64bits(v) {
				t.Fatalf("%v: Val[%d] bits %#x, wrote %#x", m, i, math.Float64bits(back.Val[i]), math.Float64bits(v))
			}
		}
	}
}

// TestWireNativeEncodeAllocatesNoScratch: the native path writes the arrays
// themselves, so encoding a multi-chunk matrix allocates no chunk scratch.
func TestWireNativeEncodeAllocatesNoScratch(t *testing.T) {
	if !wireNative {
		t.Skip("big-endian host: only the element-wise path runs")
	}
	m := RandomWithDegree(wireChunk/8+5, 16, 3, rand.New(rand.NewSource(13)))
	var err error
	d := testalloc.Bytes(func() { err = WriteCSRBinary(io.Discard, m) })
	if err != nil {
		t.Fatal(err)
	}
	if d >= wireChunk {
		t.Errorf("native encode allocated %d B, want under one %d-byte chunk", d, wireChunk)
	}
}
