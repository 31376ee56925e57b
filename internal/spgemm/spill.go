package spgemm

import (
	"fmt"
	"os"
	"sync"
	"unsafe"

	"repro/internal/matrix"
	"repro/internal/semiring"
)

// SpillSink is where AlgSharded lands finished stripes when the output must
// not be held whole (Options.ShardSink): they are written to a
// temp-file-backed CSR and re-mapped (read-only) for the merge, so the peak
// resident memory of the *output* is bounded by its budget regardless of how
// large the product is — the row-stripe analogue of the out-of-core path the
// Gao et al. SpGEMM survey (arXiv:2002.11273) describes.
//
// The driver's call protocol per multiply is: one Bind, then for every stripe
// one Stripe — which may block to bound resident memory — followed by writes
// into the returned window and one Commit, from pool workers concurrently;
// finally one Assemble after every stripe committed. Stripe windows for
// distinct s never overlap, so no synchronization covers the writes
// themselves. A failed Stripe or Commit fails the multiply once the running
// stripes have finished.
//
// Spill file format (host byte order; the file never leaves the process):
//
//	[ColIdx  int32 × nnz]
//	[padding to an 8-byte boundary]
//	[Val     V     × nnz]
//
// Each stripe's Commit writes its two segments at the exact offsets the
// global row pointer dictates, so stripes may commit in any order and the
// file is complete — with no rewrite pass — once every stripe committed. Row
// pointers stay in memory (O(rows), not budget-accounted); entry storage is
// what out-of-core execution is bounding.
//
// Admission control: Stripe blocks while admitting the stripe's buffer would
// push resident bytes over the budget, and always admits a stripe when nothing
// else is resident, so one stripe larger than the whole budget degrades to
// serial spilling rather than deadlocking. Commit releases the stripe's
// bytes and recycles its buffer.
//
// A SpillSink serves exactly one multiply (Bind errors on reuse). The
// assembled matrix aliases the mapping: it is read-only, and valid only
// until Close, which unmaps it and removes the temp file.
type SpillSink[V semiring.Value] struct {
	dir    string
	budget int64

	mu       sync.Mutex
	cond     *sync.Cond
	resident int64
	peak     int64
	free     []spillBuf[V]
	inFlight map[int]spillBuf[V]

	f      *os.File
	rows   int
	cols   int
	sorted bool
	rowPtr []int64
	valOff int64
	mapped []byte
	result *matrix.CSRG[V]
}

type spillBuf[V semiring.Value] struct {
	cols []int32
	vals []V
	lo   int
	need int64
}

// NewSpillSink returns a sink spilling to a temp file under dir (empty means
// the OS temp directory) with the given resident-bytes budget for stripe
// buffers (<= 0 means defaultShardMemBudget). Close must be called when the
// assembled product is no longer needed.
func NewSpillSink[V semiring.Value](dir string, budget int64) *SpillSink[V] {
	if budget <= 0 {
		budget = defaultShardMemBudget
	}
	k := &SpillSink[V]{dir: dir, budget: budget, inFlight: make(map[int]spillBuf[V])}
	k.cond = sync.NewCond(&k.mu)
	return k
}

// PeakResident returns the high-water mark of resident stripe-buffer bytes.
func (k *SpillSink[V]) PeakResident() int64 {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.peak
}

func (k *SpillSink[V]) elemBytes() int64 {
	var zero V
	return int64(unsafe.Sizeof(zero))
}

// Bind fixes the output geometry and creates the spill file. rowPtr is the
// final global row pointer array (length rows+1); the sink retains it.
func (k *SpillSink[V]) Bind(rows, cols int, rowPtr []int64, sorted bool) error {
	if k.f != nil || k.result != nil {
		return fmt.Errorf("spgemm: SpillSink serves one multiply; create a fresh sink")
	}
	f, err := os.CreateTemp(k.dir, "spgemm-spill-*.csr")
	if err != nil {
		return fmt.Errorf("spgemm: spill file: %w", err)
	}
	k.f = f
	k.rows, k.cols, k.sorted = rows, cols, sorted
	k.rowPtr = rowPtr
	nnz := rowPtr[rows]
	k.valOff = (4*nnz + 7) &^ 7
	if err := f.Truncate(k.valOff + k.elemBytes()*nnz); err != nil {
		return fmt.Errorf("spgemm: spill truncate: %w", err)
	}
	return nil
}

// Stripe returns the entry window for stripe s covering the global rows
// [lo, hi): slices of length rowPtr[hi]-rowPtr[lo] the driver writes the
// stripe's columns and values into. Blocks until resident space is available.
func (k *SpillSink[V]) Stripe(s, lo, hi int) ([]int32, []V, error) {
	if k.f == nil {
		return nil, nil, fmt.Errorf("spgemm: SpillSink.Stripe before Bind")
	}
	n := k.rowPtr[hi] - k.rowPtr[lo]
	need := n * (4 + k.elemBytes())
	k.mu.Lock()
	for k.resident > 0 && k.resident+need > k.budget {
		k.cond.Wait()
	}
	k.resident += need
	if k.resident > k.peak {
		k.peak = k.resident
	}
	var buf spillBuf[V]
	for i, fb := range k.free {
		if int64(cap(fb.cols)) >= n {
			buf = fb
			k.free = append(k.free[:i], k.free[i+1:]...)
			break
		}
	}
	if int64(cap(buf.cols)) < n {
		buf = spillBuf[V]{cols: make([]int32, n), vals: make([]V, n)}
	}
	buf.cols, buf.vals = buf.cols[:n], buf.vals[:n]
	buf.lo, buf.need = lo, need
	k.inFlight[s] = buf
	k.mu.Unlock()
	return buf.cols, buf.vals, nil
}

// Commit writes stripe s's window to the file. After Commit the window must
// no longer be touched: its buffer goes to the next stripe that fits it.
func (k *SpillSink[V]) Commit(s int) error {
	k.mu.Lock()
	buf, ok := k.inFlight[s]
	delete(k.inFlight, s)
	k.mu.Unlock()
	if !ok {
		return fmt.Errorf("spgemm: SpillSink.Commit(%d) without Stripe", s)
	}
	e0 := k.rowPtr[buf.lo]
	var err error
	if len(buf.cols) > 0 {
		if _, werr := k.f.WriteAt(i32Bytes(buf.cols), 4*e0); werr != nil {
			err = fmt.Errorf("spgemm: spill write (cols): %w", werr)
		} else if _, werr := k.f.WriteAt(valBytes(buf.vals), k.valOff+k.elemBytes()*e0); werr != nil {
			err = fmt.Errorf("spgemm: spill write (vals): %w", werr)
		}
	}
	k.mu.Lock()
	k.resident -= buf.need
	k.free = append(k.free, buf)
	k.cond.Broadcast()
	k.mu.Unlock()
	return err
}

// Assemble maps the file and returns the finished product once every stripe
// committed.
func (k *SpillSink[V]) Assemble() (*matrix.CSRG[V], error) {
	if k.f == nil {
		return nil, fmt.Errorf("spgemm: SpillSink.Assemble before Bind")
	}
	k.mu.Lock()
	pending := len(k.inFlight)
	k.free = nil // stripe buffers are done; let them go
	k.mu.Unlock()
	if pending > 0 {
		return nil, fmt.Errorf("spgemm: SpillSink.Assemble with %d uncommitted stripes", pending)
	}
	nnz := k.rowPtr[k.rows]
	c := &matrix.CSRG[V]{
		Rows:   k.rows,
		Cols:   k.cols,
		RowPtr: k.rowPtr,
		ColIdx: []int32{},
		Val:    []V{},
		Sorted: k.sorted,
	}
	if nnz > 0 {
		size := k.valOff + k.elemBytes()*nnz
		data, err := mapSpillFile(k.f, size)
		if err != nil {
			return nil, err
		}
		k.mapped = data
		c.ColIdx = unsafe.Slice((*int32)(unsafe.Pointer(&data[0])), nnz)
		c.Val = unsafe.Slice((*V)(unsafe.Pointer(&data[k.valOff])), nnz)
	}
	k.result = c
	return c, nil
}

// Close unmaps the assembled product (which becomes invalid), closes and
// removes the spill file. Safe to call multiple times.
func (k *SpillSink[V]) Close() error {
	var err error
	if k.mapped != nil {
		err = unmapSpillFile(k.mapped)
		k.mapped = nil
	}
	if k.f != nil {
		name := k.f.Name()
		if cerr := k.f.Close(); err == nil {
			err = cerr
		}
		if rerr := os.Remove(name); err == nil {
			err = rerr
		}
		k.f = nil
	}
	return err
}

// SpilledBytes returns the size of the spill file contents.
func (k *SpillSink[V]) SpilledBytes() int64 {
	if k.f == nil || k.rowPtr == nil {
		return 0
	}
	return k.valOff + k.elemBytes()*k.rowPtr[k.rows]
}

// i32Bytes views an int32 slice as raw bytes (host order).
func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), 4*len(s))
}

// valBytes views a value slice as raw bytes (host order).
func valBytes[V semiring.Value](s []V) []byte {
	if len(s) == 0 {
		return nil
	}
	var zero V
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), int(unsafe.Sizeof(zero))*len(s))
}
