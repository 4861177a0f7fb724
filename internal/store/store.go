// Package store is the persistent tier of vwsdkd's plan cache: a
// content-addressed on-disk store of serialized compile.NetworkPlans keyed
// by compile.Key. The plan LRU (internal/server) is write-behind into a
// Store, so a restarted daemon — or a fresh replica pointed at shared
// storage — comes up warm: the same request is answered from disk with the
// byte-identical plan, without re-running the search.
//
// Consistency is by construction: compile.Key is a pure content address (a
// compilation is a deterministic function of its key), so a stored entry can
// never be stale — only corrupt. Every load is therefore re-validated
// exactly like the golden round-trip (compile.FromJSON re-checks the plan's
// totals against its layers) plus a re-key check (the decoded plan's own
// request must hash back to the key it was stored under); an entry failing
// either check is quarantined on the spot — renamed aside with a .corrupt
// suffix so it is recomputed, never served, and never retried. Entries hold
// compile.AppendPlan's compact bytes, which compile.FromJSON decodes in one
// pass, guarded by re-encoding; an entry in any other form still loads,
// through encoding/json.
//
// Layout: one file per plan at <dir>/<aa>/<sha256(key) hex>.json, where
// <aa> is the first hash byte (256-way fan-out keeps directories small at
// fleet scale). Writes are atomic temp+rename in the entry's own directory,
// so readers — including concurrent vwsdkd replicas sharing the directory —
// never observe a torn entry; a crash mid-write leaves only a .tmp file that
// the next Open sweeps away.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
)

// Store is an on-disk plan store rooted at a directory. Build one with
// Open; a *Store is safe for concurrent use, including by multiple
// processes sharing the directory.
type Store struct {
	dir string

	hits    atomic.Uint64
	misses  atomic.Uint64
	writes  atomic.Uint64
	corrupt atomic.Uint64

	// wg tracks in-flight write-behind goroutines; Flush waits on it.
	wg sync.WaitGroup
	// writeSem bounds concurrent write-behind goroutines so a warm-up burst
	// cannot exhaust file descriptors.
	writeSem chan struct{}
}

// Open opens (creating if needed) the plan store rooted at dir and sweeps
// away temp files abandoned by a crashed writer.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, writeSem: make(chan struct{}, 8)}
	s.sweepTemp()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// path maps a key to its entry file. The first hash byte is the fan-out
// directory, mirrored as the leading two hex characters of the file name.
func (s *Store) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	hexed := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, hexed[:2], hexed+".json")
}

// GetPlan implements compile.PlanStore: it loads, validates and returns the
// entry for key. A missing entry is a miss; an entry that fails validation
// — unreadable, truncated, totals-inconsistent, or stored under a key its
// own request does not hash to — is quarantined and reported as a miss, so
// the caller recomputes and overwrites it.
func (s *Store) GetPlan(key string) ([]byte, *compile.NetworkPlan, bool) {
	path := s.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
		} else {
			// Unreadable for another reason (permissions, I/O error):
			// quarantine so the serve path never blocks on a sick file again.
			s.quarantine(path)
		}
		return nil, nil, false
	}
	// Truncated, syntactically broken or totals-inconsistent bytes fail, and
	// so does an entry whose own request is not the content this address
	// names: one copied or renamed to the wrong path, the only "staleness" a
	// content-addressed store can exhibit.
	plan, err := compile.FromKeyedJSON(data, key)
	if err != nil {
		s.quarantine(path)
		return nil, nil, false
	}
	s.hits.Add(1)
	return data, plan, true
}

// PutPlan implements compile.PlanStore: it persists data for key with an
// atomic temp+rename, asynchronously (write-behind — the serve path never
// waits on disk). data must be immutable; an entry already on disk is left
// alone (same key means same content, so rewriting buys nothing). Call
// Flush to wait for pending writes (tests, warm mode, shutdown).
func (s *Store) PutPlan(key string, data []byte) {
	path := s.path(key)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.writeSem <- struct{}{}
		defer func() { <-s.writeSem }()
		if _, err := os.Stat(path); err == nil {
			return
		}
		if s.writeEntry(path, data) == nil {
			s.writes.Add(1)
		}
	}()
}

// writeEntry writes data to path atomically: a .tmp file in the entry's own
// fan-out directory (same filesystem, so the rename is atomic), then rename
// into place.
func (s *Store) writeEntry(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// quarantine moves a failed entry aside (path → path.corrupt, replacing any
// previous quarantine of the same entry) and counts it. The entry's address
// is now vacant, so the next compute overwrites it with good bytes; the
// quarantined file sticks around for a postmortem.
func (s *Store) quarantine(path string) {
	s.corrupt.Add(1)
	if err := os.Rename(path, path+".corrupt"); err != nil && !os.IsNotExist(err) {
		// Rename failed (e.g. read-only dir): removal is the fallback that
		// still guarantees the bad entry is never loaded again.
		os.Remove(path)
	}
}

// Flush blocks until every write issued before the call has completed.
func (s *Store) Flush() { s.wg.Wait() }

// StoreStats implements compile.PlanStore.
func (s *Store) StoreStats() compile.StoreStats {
	return compile.StoreStats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Writes:  s.writes.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// Len walks the store and counts valid-looking entries (by name, not by
// validating contents) — a startup/debug figure, not a serve-path call.
func (s *Store) Len() int {
	n := 0
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.HasSuffix(path, ".json") {
			n++
		}
		return nil
	})
	return n
}

// sweepTemp removes temp files a crashed writer left behind; quarantined
// .corrupt files are kept (they are diagnostic artifacts, not garbage).
func (s *Store) sweepTemp() {
	filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if strings.Contains(filepath.Base(path), ".tmp") {
			os.Remove(path)
		}
		return nil
	})
}
