package matrix

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"unsafe"
)

// Binary CSR wire format ("SPGB"): the compact transfer encoding used by
// the multiply server and its clients. Matrix Market is the interchange
// format of the paper's corpus, but it is text — parsing dominates upload
// time for anything large. The wire format is the CSR arrays verbatim,
// little-endian, preceded by a fixed header:
//
//	offset  size  field
//	0       4     magic "SPGB"
//	4       2     version (uint16, currently 1)
//	6       2     flags   (uint16; bit 0 = rows sorted)
//	8       8     rows    (int64, ≤ MaxInt32)
//	16      8     cols    (int64, ≤ MaxInt32)
//	24      8     nnz     (int64)
//	32      ...   rowptr  [rows+1]int64
//	...     ...   colidx  [nnz]int32
//	...     ...   val     [nnz]float64
//
// The encoding is canonical (no padding, no optional sections), and the
// reader rejects unknown flag bits and bytes after the value array, so an
// accepted stream is the one encoding of what it decodes to, and a hash over
// it names the matrix for the server's interning store. A little-endian host
// sends and receives each array's memory as it lies, others convert it: the
// same bytes.

// wireMagic identifies a binary CSR stream.
var wireMagic = [4]byte{'S', 'P', 'G', 'B'}

// WireVersion is the format version written by WriteCSRBinary.
const WireVersion = 1

const (
	wireHeaderSize = 32
	wireFlagSorted = 1 << 0
	// wireChunk is the byte granularity of reads and element-wise writes:
	// bounded so a header claiming a huge nnz on a truncated stream fails at
	// the first short chunk instead of committing the full allocation, and
	// so no scratch buffer is larger than this.
	wireChunk = 32 << 10
)

// wireScratch returns a codec's scratch buffer for arrays of at most n
// 8-byte elements: one chunk, or less when every array fits in less.
func wireScratch(n int64) []byte {
	if n < wireChunk/8 {
		return make([]byte, 8*n)
	}
	return make([]byte, wireChunk)
}

// WireSize returns the exact encoded size of m in bytes.
func WireSize(m *CSR) int64 {
	return wireHeaderSize + int64(len(m.RowPtr))*8 + m.NNZ()*12
}

// WriteCSRBinary writes m in the binary CSR wire format. A little-endian host
// hands w each array's own memory: io.Writer must not modify or retain p.
func WriteCSRBinary(w io.Writer, m *CSR) error {
	if int64(len(m.RowPtr)) != int64(m.Rows)+1 {
		return fmt.Errorf("matrix: wire encode: RowPtr length %d, want %d", len(m.RowPtr), m.Rows+1)
	}
	var hdr [wireHeaderSize]byte
	copy(hdr[0:4], wireMagic[:])
	binary.LittleEndian.PutUint16(hdr[4:6], WireVersion)
	if m.Sorted {
		binary.LittleEndian.PutUint16(hdr[6:8], wireFlagSorted)
	}
	binary.LittleEndian.PutUint64(hdr[8:16], uint64(m.Rows))
	binary.LittleEndian.PutUint64(hdr[16:24], uint64(m.Cols))
	binary.LittleEndian.PutUint64(hdr[24:32], uint64(m.NNZ()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if err := writeWireArray(w, m.RowPtr); err != nil {
		return err
	}
	if err := writeWireArray(w, m.ColIdx); err != nil {
		return err
	}
	return writeWireArray(w, m.Val)
}

var wireNative = binary.NativeEndian.Uint16([]byte{1, 0}) == 1 // little-endian host; tests may clear it

// writeWireArray writes s little-endian: its own memory if wireNative, else by element.
func writeWireArray[T int32 | int64 | float64](w io.Writer, s []T) error {
	size := int(unsafe.Sizeof(*new(T)))
	if wireNative && len(s) > 0 {
		_, err := w.Write(unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), size*len(s)))
		return err
	}
	buf := make([]byte, min(size*len(s), wireChunk))
	for len(s) > 0 {
		chunk := s[:min(len(s), len(buf)/size)]
		for j := range chunk {
			if p := unsafe.Pointer(&chunk[j]); size == 8 {
				binary.LittleEndian.PutUint64(buf[8*j:], *(*uint64)(p))
			} else {
				binary.LittleEndian.PutUint32(buf[4*j:], *(*uint32)(p))
			}
		}
		if _, err := w.Write(buf[:size*len(chunk)]); err != nil {
			return err
		}
		s = s[len(chunk):]
	}
	return nil
}

// ReadCSRBinary parses a binary CSR stream and validates the result: the
// magic, version, flag bits and dimension bounds up front, then that the
// stream ends with the value array and the full CSR structural invariants
// (monotone row pointers, in-range column indices, sortedness when flagged)
// once the arrays are in. Array storage is
// committed chunk by chunk, each once the one before it arrived, so a
// truncated or lying header errors out early instead of allocating what it
// claims.
func ReadCSRBinary(r io.Reader) (*CSR, error) {
	return ReadCSRBinaryLimited(r, nil)
}

// ReadCSRBinaryLimited is ReadCSRBinary with a shape bound enforced before
// any shape-proportional allocation happens.
func ReadCSRBinaryLimited(r io.Reader, lim *ReadLimits) (*CSR, error) {
	var hdr [wireHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("matrix: wire header: %w", err)
	}
	if [4]byte(hdr[0:4]) != wireMagic {
		return nil, fmt.Errorf("matrix: wire: bad magic %q", hdr[0:4])
	}
	if v := binary.LittleEndian.Uint16(hdr[4:6]); v != WireVersion {
		return nil, fmt.Errorf("matrix: wire: unsupported version %d", v)
	}
	flags := binary.LittleEndian.Uint16(hdr[6:8])
	if flags&^wireFlagSorted != 0 {
		return nil, fmt.Errorf("matrix: wire: unknown flag bits %#x", flags&^wireFlagSorted)
	}
	rows := int64(binary.LittleEndian.Uint64(hdr[8:16]))
	cols := int64(binary.LittleEndian.Uint64(hdr[16:24]))
	nnz := int64(binary.LittleEndian.Uint64(hdr[24:32]))
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("matrix: wire: negative shape %dx%d nnz=%d", rows, cols, nnz)
	}
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("matrix: wire: dimensions %dx%d exceed int32 index space", rows, cols)
	}
	if err := lim.check(int(rows), int(cols), nnz); err != nil {
		return nil, fmt.Errorf("matrix: wire: %w", err)
	}

	m := &CSRG[float64]{
		Rows:   int(rows),
		Cols:   int(cols),
		Sorted: flags&wireFlagSorted != 0,
	}
	var buf []byte // a little-endian host reads into the arrays themselves
	if !wireNative {
		buf = wireScratch(max(rows+1, nnz))
	}
	var err error
	if m.RowPtr, err = readWireArray[int64](r, buf, rows+1); err != nil {
		return nil, fmt.Errorf("matrix: wire rowptr: %w", err)
	}
	if m.ColIdx, err = readWireArray[int32](r, buf, nnz); err != nil {
		return nil, fmt.Errorf("matrix: wire colidx: %w", err)
	}
	if m.Val, err = readWireArray[float64](r, buf, nnz); err != nil {
		return nil, fmt.Errorf("matrix: wire val: %w", err)
	}
	var extra [1]byte
	if _, err := io.ReadFull(r, extra[:]); err == nil {
		return nil, fmt.Errorf("matrix: wire: bytes after the value array")
	} else if err != io.EOF {
		return nil, fmt.Errorf("matrix: wire trailer: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("matrix: wire: %w", err)
	}
	return m, nil
}

// growChunk extends dst by want elements for the next chunk of an array of
// n, so allocation tracks delivered bytes, not the claimed count: at most
// one chunk ahead of them, capacity at least doubles when it runs out, and
// never passes n.
func growChunk[T any](dst []T, want, n int64) []T {
	if need := int64(len(dst)) + want; need > int64(cap(dst)) {
		grown := make([]T, len(dst), min(n, max(need, 2*int64(cap(dst)))))
		copy(grown, dst)
		dst = grown
	}
	return dst[:int64(len(dst))+want]
}

// readWireArray reads n little-endian elements one chunk at a time, the
// mirror of writeWireArray: each chunk straight into the array's own memory
// if wireNative, else through buf, element by element.
func readWireArray[T int32 | int64 | float64](r io.Reader, buf []byte, n int64) ([]T, error) {
	size := int64(unsafe.Sizeof(*new(T)))
	dst := []T{}
	for int64(len(dst)) < n {
		want := min(n-int64(len(dst)), wireChunk/size)
		dst = growChunk(dst, want, n)
		out := dst[int64(len(dst))-want:]
		b := unsafe.Slice((*byte)(unsafe.Pointer(&out[0])), size*want)
		if !wireNative {
			b = buf[:size*want]
		}
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		if wireNative {
			continue
		}
		for j := range out {
			if p := unsafe.Pointer(&out[j]); size == 8 {
				*(*uint64)(p) = binary.LittleEndian.Uint64(b[8*j:])
			} else {
				*(*uint32)(p) = binary.LittleEndian.Uint32(b[4*j:])
			}
		}
	}
	return dst, nil
}
