package matrix

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Matrix Market (MM) coordinate-format I/O. The subset implemented here is
// what the SuiteSparse collection uses for the matrices of the paper's
// Table 2: "matrix coordinate (real|integer|pattern) (general|symmetric)".

// ReadLimits bounds the matrix shape a reader will accept before doing any
// shape-proportional allocation. Servers parsing untrusted uploads set
// these: a handful of header bytes can otherwise claim 2^31 rows and make
// the parser allocate gigabytes for row pointers. Zero fields mean
// "unlimited" (subject only to the int32 index space).
type ReadLimits struct {
	MaxRows int
	MaxCols int
	MaxNNZ  int64
}

// check validates a claimed shape against the limits. A nil receiver
// accepts everything.
func (l *ReadLimits) check(rows, cols int, nnz int64) error {
	if l == nil {
		return nil
	}
	if l.MaxRows > 0 && rows > l.MaxRows {
		return fmt.Errorf("matrix: %d rows exceeds limit %d", rows, l.MaxRows)
	}
	if l.MaxCols > 0 && cols > l.MaxCols {
		return fmt.Errorf("matrix: %d cols exceeds limit %d", cols, l.MaxCols)
	}
	if l.MaxNNZ > 0 && nnz > l.MaxNNZ {
		return fmt.Errorf("matrix: %d nonzeros exceeds limit %d", nnz, l.MaxNNZ)
	}
	return nil
}

// ReadMatrixMarket parses a Matrix Market coordinate stream into a CSR
// matrix. Pattern matrices get value 1 for every entry; symmetric matrices
// are expanded to full storage. Every position the text lists is an entry of
// the matrix whatever its value — an explicit 0 or -0, ±Inf and NaN are
// stored as written, the way SpGEMM treats a stored zero as structure —
// and positions listed twice are summed. Rows come out sorted.
func ReadMatrixMarket(r io.Reader) (*CSR, error) {
	return ReadMatrixMarketLimited(r, nil)
}

// ReadMatrixMarketLimited is ReadMatrixMarket with a shape bound enforced
// before any shape-proportional allocation happens.
func ReadMatrixMarketLimited(r io.Reader, lim *ReadLimits) (*CSR, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	header, err := readNonEmptyLine(br)
	if err != nil {
		return nil, fmt.Errorf("matrixmarket: missing header: %w", err)
	}
	fields := strings.Fields(strings.ToLower(header))
	if len(fields) < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
		return nil, fmt.Errorf("matrixmarket: bad header %q", header)
	}
	if fields[2] != "coordinate" {
		return nil, fmt.Errorf("matrixmarket: unsupported format %q (only coordinate)", fields[2])
	}
	valType := fields[3]
	switch valType {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("matrixmarket: unsupported value type %q", valType)
	}
	symmetry := fields[4]
	switch symmetry {
	case "general", "symmetric", "skew-symmetric":
	default:
		return nil, fmt.Errorf("matrixmarket: unsupported symmetry %q", symmetry)
	}

	// Size line (after comments).
	sizeLine, err := readDataLine(br)
	if err != nil {
		return nil, fmt.Errorf("matrixmarket: missing size line: %w", err)
	}
	// The size line is exactly "rows cols nnz". fmt.Sscan would silently
	// ignore trailing tokens ("3 3 4 junk" used to parse), so split and
	// require the exact field count before converting.
	sf := strings.Fields(sizeLine)
	if len(sf) != 3 {
		return nil, fmt.Errorf("matrixmarket: bad size line %q: want exactly \"rows cols nnz\"", sizeLine)
	}
	rows, err := strconv.Atoi(sf[0])
	if err != nil {
		return nil, fmt.Errorf("matrixmarket: bad size line %q: %w", sizeLine, err)
	}
	cols, err := strconv.Atoi(sf[1])
	if err != nil {
		return nil, fmt.Errorf("matrixmarket: bad size line %q: %w", sizeLine, err)
	}
	nnz, err := strconv.ParseInt(sf[2], 10, 64)
	if err != nil {
		return nil, fmt.Errorf("matrixmarket: bad size line %q: %w", sizeLine, err)
	}
	if rows < 0 || cols < 0 || nnz < 0 {
		return nil, fmt.Errorf("matrixmarket: negative size %d %d %d", rows, cols, nnz)
	}
	// Row and column indices are stored as int32 throughout this library;
	// the largest representable index is math.MaxInt32, so any dimension
	// beyond that overflows (2^31 itself used to slip through a > 1<<31
	// comparison).
	if rows > math.MaxInt32 || cols > math.MaxInt32 {
		return nil, fmt.Errorf("matrixmarket: dimensions %dx%d exceed int32 index space", rows, cols)
	}
	if err := lim.check(rows, cols, nnz); err != nil {
		return nil, fmt.Errorf("matrixmarket: %w", err)
	}

	// Cap the Entries preallocation: nnz comes from the (untrusted) size
	// line, and the loop below appends one parsed entry at a time, so a
	// truncated stream claiming a huge count fails fast instead of
	// committing gigabytes up front.
	prealloc := nnz
	if prealloc > 1<<20 {
		prealloc = 1 << 20
	}
	coo := &COO{Rows: rows, Cols: cols, Entries: make([]Entry, 0, prealloc)}
	for k := int64(0); k < nnz; k++ {
		line, err := readDataLine(br)
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: entry %d: %w", k, err)
		}
		f := strings.Fields(line)
		want := 3
		if valType == "pattern" {
			want = 2
		}
		if len(f) < want {
			return nil, fmt.Errorf("matrixmarket: entry %d: short line %q", k, line)
		}
		i, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: entry %d row: %w", k, err)
		}
		j, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("matrixmarket: entry %d col: %w", k, err)
		}
		v := 1.0
		if valType != "pattern" {
			v, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("matrixmarket: entry %d value: %w", k, err)
			}
		}
		// Matrix Market is 1-indexed.
		row, col := int32(i-1), int32(j-1)
		coo.Append(row, col, v)
		if row != col {
			switch symmetry {
			case "symmetric":
				coo.Append(col, row, v)
			case "skew-symmetric":
				coo.Append(col, row, -v)
			}
		}
	}
	if err := coo.Validate(); err != nil {
		return nil, err
	}
	return coo.toCSR(true), nil
}

// WriteMatrixMarket writes m in "matrix coordinate real general" format.
func WriteMatrixMarket(w io.Writer, m *CSR) error {
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows, m.Cols, m.NNZ()); err != nil {
		return err
	}
	for i := 0; i < m.Rows; i++ {
		lo, hi := m.RowPtr[i], m.RowPtr[i+1]
		for p := lo; p < hi; p++ {
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, m.ColIdx[p]+1, m.Val[p]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

func readNonEmptyLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		line = strings.TrimSpace(line)
		if line != "" {
			return line, nil
		}
		if err != nil {
			return "", err
		}
	}
}

// readDataLine skips blank and comment lines.
func readDataLine(br *bufio.Reader) (string, error) {
	for {
		line, err := br.ReadString('\n')
		trimmed := strings.TrimSpace(line)
		if trimmed != "" && !strings.HasPrefix(trimmed, "%") {
			return trimmed, nil
		}
		if err != nil {
			return "", err
		}
	}
}
