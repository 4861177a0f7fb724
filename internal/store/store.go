// Package store is the persistent tier of vwsdkd's plan cache: a
// content-addressed on-disk store of serialized compile.NetworkPlans keyed
// by compile.Key. The plan LRU (internal/server) is write-behind into a
// Store, so a restarted daemon — or a fresh replica pointed at shared
// storage — comes up warm: the same request is answered from disk with the
// byte-identical plan, without re-running the search.
//
// Consistency is by construction: compile.Key is a pure content address (a
// compilation is a deterministic function of its key), so a stored entry can
// never be stale — only corrupt. Every load is therefore checked with
// compile.CheckPlan: the bytes must be exactly compile.AppendPlan's compact
// encoding of a plan whose totals match its layers and whose own request
// hashes back to the key it was stored under. An entry failing the check —
// truncated, damaged, in any other form (indented or hand-edited JSON
// included) or filed under the wrong key — is quarantined on the spot:
// renamed aside with a .corrupt suffix so it is recomputed, never served,
// and never retried.
//
// Layout: one file per plan at <dir>/<aa>/<sha256(key) hex>.json, where
// <aa> is the first hash byte (256-way fan-out keeps directories small at
// fleet scale). Writes are atomic temp+rename in the entry's own directory,
// so readers — including concurrent vwsdkd replicas sharing the directory —
// never observe a torn entry; a crash mid-write leaves only a .tmp file that
// the next Open sweeps away.
package store

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/compile"
	"repro/internal/obs"
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

// LoadPlan implements compile.PlanStore: it reads the entry for key, checks
// it with compile.CheckPlan and returns its bytes and totals. A missing
// entry is a miss; an entry that fails the check — unreadable, truncated,
// not in the canonical form, totals-inconsistent, or stored under a key its
// own request does not hash to — is quarantined and reported as a miss, so
// the caller recomputes and overwrites it. On a traced ctx the read is a
// store.get span and the check a plan.check span.
func (s *Store) LoadPlan(ctx context.Context, key string) ([]byte, compile.Totals, bool) {
	path := s.path(key)
	sp := obs.StartLeaf(ctx, "store.get")
	data, err := os.ReadFile(path)
	sp.End()
	if err != nil {
		if os.IsNotExist(err) {
			s.misses.Add(1)
		} else {
			// Unreadable for another reason (permissions, I/O error):
			// quarantine so the serve path never blocks on a sick file again.
			s.quarantine(path)
		}
		return nil, compile.Totals{}, false
	}
	// An entry whose own request is not the content this address names —
	// one copied or renamed to the wrong path — is the only "staleness" a
	// content-addressed store can exhibit; the key check catches it.
	sp = obs.StartLeaf(ctx, "plan.check").SetInt("bytes", int64(len(data)))
	t, err := compile.CheckPlan(data, key)
	sp.End()
	if err != nil {
		s.quarantine(path)
		return nil, compile.Totals{}, false
	}
	s.hits.Add(1)
	return data, t, true
}

// GetPlan is LoadPlan plus the decoded plan, for callers that want the
// plan itself rather than its bytes and totals.
func (s *Store) GetPlan(key string) ([]byte, *compile.NetworkPlan, bool) {
	data, _, ok := s.LoadPlan(context.Background(), key)
	if !ok {
		return nil, nil, false
	}
	plan, err := compile.FromJSON(data)
	if err != nil {
		return nil, nil, false // unreachable: CheckPlan accepted the bytes
	}
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
