package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"repro/internal/matrix"
)

// Store is the content-hash-addressed matrix intern table. Uploads are
// keyed by the SHA-256 of their canonical binary wire encoding (see
// matrix.WriteCSRBinary): two uploads of the same matrix — whatever format
// they arrived in — intern to one copy, and a hash in a multiply request
// can only ever mean one matrix. Stored matrices are immutable; everything
// downstream (the Plan cache in particular) relies on that.
//
// The store holds at most MaxBytes of matrix payload, evicting least-
// recently-used entries past the budget. Eviction notifies the onEvict
// hook (the server drops the evicted matrix's cached Plans there).
type Store struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	byHash   map[string]*storedMatrix
	lru      *list.List // front = most recently used
	onEvict  func(hash string)
}

type storedMatrix struct {
	hash  string
	m     *matrix.CSR
	bytes int64
	elem  *list.Element
}

// NewStore returns an empty store holding at most maxBytes of matrix
// payload (0 = unlimited). onEvict, when non-nil, is called (without the
// store lock held) with the hash of every evicted matrix.
func NewStore(maxBytes int64, onEvict func(hash string)) *Store {
	return &Store{
		maxBytes: maxBytes,
		byHash:   map[string]*storedMatrix{},
		lru:      list.New(),
		onEvict:  onEvict,
	}
}

// HashMatrix returns the content hash of m: hex SHA-256 over the canonical
// wire encoding.
func HashMatrix(m *matrix.CSR) (string, error) {
	h := sha256.New()
	if err := matrix.WriteCSRBinary(h, m); err != nil {
		return "", fmt.Errorf("server: hashing matrix: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Put interns m and returns its content hash. If an identical matrix is
// already stored, the existing copy wins (existed = true) and m is
// discarded — callers must compute with Get's copy, never m, after
// interning. m's metadata is the stored copy's: the hash covers all of it.
func (s *Store) Put(m *matrix.CSR) (hash string, existed bool, err error) {
	hash, err = HashMatrix(m)
	if err != nil {
		return "", false, err
	}
	size := matrix.WireSize(m)

	var evicted []string
	s.mu.Lock()
	if e, ok := s.byHash[hash]; ok {
		s.lru.MoveToFront(e.elem)
		s.mu.Unlock()
		mDedup.Inc()
		return hash, true, nil
	}
	e := &storedMatrix{hash: hash, m: m, bytes: size}
	e.elem = s.lru.PushFront(e)
	s.byHash[hash] = e
	s.bytes += size
	// Evict past the byte budget, never the entry just inserted.
	for s.maxBytes > 0 && s.bytes > s.maxBytes && s.lru.Len() > 1 {
		back := s.lru.Back().Value.(*storedMatrix)
		s.removeLocked(back)
		evicted = append(evicted, back.hash)
	}
	s.updateGaugesLocked()
	s.mu.Unlock()

	mUploads.Inc()
	for _, h := range evicted {
		mStoreEvictions.Inc()
		if s.onEvict != nil {
			s.onEvict(h)
		}
	}
	return hash, false, nil
}

// Get returns the interned matrix for hash, bumping its recency.
func (s *Store) Get(hash string) (*matrix.CSR, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.byHash[hash]
	if !ok {
		return nil, false
	}
	s.lru.MoveToFront(e.elem)
	return e.m, true
}

// Len returns the number of interned matrices.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lru.Len()
}

// Bytes returns the approximate interned payload size.
func (s *Store) Bytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.bytes
}

func (s *Store) removeLocked(e *storedMatrix) {
	s.lru.Remove(e.elem)
	delete(s.byHash, e.hash)
	s.bytes -= e.bytes
}

func (s *Store) updateGaugesLocked() {
	mStoreBytes.Set(s.bytes)
	mStoreEntries.Set(int64(s.lru.Len()))
}
