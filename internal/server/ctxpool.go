package server

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/spgemm"
)

// ErrSaturated is returned by ContextPool.Acquire when every Context is
// checked out and the wait queue is already at its admission limit. The
// HTTP layer maps it to 429 Too Many Requests.
var ErrSaturated = errors.New("server: all contexts busy and queue full")

// ContextPool is the bounded checkout pool of spgemm.Contexts at the heart
// of the server's concurrency design. A Context is NOT safe for concurrent
// use (internal/spgemm/context.go), so the pool enforces exclusive
// ownership by construction: a Context lives either in the pool's channel
// or in exactly one request handler, and the channel send/receive is the
// ownership transfer (a happens-before edge, so the race detector proves
// the discipline rather than taking it on faith).
//
// Admission control is layered on top: at most size requests run
// concurrently, at most queueDepth more wait for a Context, and everything
// beyond that is rejected immediately with ErrSaturated — the server sheds
// load instead of accumulating unbounded queued work.
type ContextPool struct {
	contexts chan *spgemm.Context
	size     int
	maxQueue int64
	waiting  atomic.Int64
}

// NewContextPool returns a pool of size warm Contexts admitting at most
// queueDepth waiters.
func NewContextPool(size, queueDepth int) *ContextPool {
	if size < 1 {
		size = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	p := &ContextPool{
		contexts: make(chan *spgemm.Context, size),
		size:     size,
		maxQueue: int64(queueDepth),
	}
	for i := 0; i < size; i++ {
		p.contexts <- spgemm.NewContext()
	}
	return p
}

// Size returns the number of Contexts owned by the pool.
func (p *ContextPool) Size() int { return p.size }

// Acquire checks a Context out, blocking while all are busy. It fails with
// ErrSaturated when the wait queue is full, or ctx.Err() when the caller
// gives up first (client disconnect). Every successful Acquire must be
// paired with Release.
func (p *ContextPool) Acquire(ctx context.Context) (*spgemm.Context, error) {
	c, _, err := p.AcquireTraced(ctx)
	return c, err
}

// AcquireTraced is Acquire plus the queueing fact the request record wants:
// queued reports whether the fast path missed and the request actually
// waited in the admission queue (as opposed to checking a free Context out
// immediately).
func (p *ContextPool) AcquireTraced(ctx context.Context) (c *spgemm.Context, queued bool, err error) {
	// Fast path: a Context is free right now.
	select {
	case c := <-p.contexts:
		mInflight.Add(1)
		return c, false, nil
	default:
	}
	// Admission check before joining the queue.
	if p.waiting.Add(1) > p.maxQueue {
		p.waiting.Add(-1)
		mRejected.Inc()
		return nil, true, ErrSaturated
	}
	mQueueDepth.Set(p.waiting.Load())
	defer func() {
		p.waiting.Add(-1)
		mQueueDepth.Set(p.waiting.Load())
	}()
	select {
	case c := <-p.contexts:
		mInflight.Add(1)
		return c, true, nil
	case <-ctx.Done():
		return nil, true, ctx.Err()
	}
}

// Release returns a checked-out Context to the pool. The caller must not
// touch the Context afterwards.
func (p *ContextPool) Release(c *spgemm.Context) {
	mInflight.Add(-1)
	p.contexts <- c
}
