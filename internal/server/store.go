package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/matrix"
)

// Store is the content-hash-addressed matrix intern table. Uploads are
// keyed by the SHA-256 of their canonical binary wire encoding (see
// matrix.WriteCSRBinary): two uploads of the same matrix — whatever format
// they arrived in — intern to one copy, and a hash in a multiply request
// can only ever mean one matrix. Stored matrices are immutable; everything
// downstream (the Plan cache in particular) relies on that.
//
// The store is an lru bounded by bytes of matrix payload (matrix.WireSize).
// Eviction notifies the onEvict hook (the server drops the evicted matrix's
// cached Plans there).
type Store struct {
	*lru[string, *matrix.CSR]
	onEvict func(hash string)
}

// NewStore returns an empty store holding at most maxBytes of matrix
// payload (0 = unlimited). onEvict, when non-nil, is called (without the
// store lock held) with the hash of every evicted matrix.
func NewStore(maxBytes int64, onEvict func(hash string)) *Store {
	return &Store{newLRU[string, *matrix.CSR](0, maxBytes, mStoreEntries, mStoreBytes, mStoreEvictions), onEvict}
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
	existed, evicted := s.add(hash, m, matrix.WireSize(m))
	if existed {
		mDedup.Inc()
		return hash, true, nil
	}
	mUploads.Inc()
	if s.onEvict != nil {
		for _, h := range evicted {
			s.onEvict(h)
		}
	}
	return hash, false, nil
}

// Get returns the interned matrix for hash, bumping its recency.
func (s *Store) Get(hash string) (*matrix.CSR, bool) { return s.get(hash) }
