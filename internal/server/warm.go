package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/cliutil"
	"repro/internal/compile"
	"repro/internal/fanout"
)

// Manifest is the bulk pre-compile list behind vwsdkd -warm: a JSON document
// whose "requests" entries are ordinary /v1/compile bodies (zoo names or
// inline network specs, optional array/options forms included):
//
//	{
//	  "requests": [
//	    {"network": "VGG-13", "array": "512x512"},
//	    {"network": {"name": "TinyNet", "layers": [...]}, "array": "256x256",
//	     "options": {"variant": "square-tiled"}}
//	  ]
//	}
//
// Warming runs through the same tiered fill path as live traffic, so it is
// resumable by construction: a request whose plan is already in the LRU, the
// persistent store or an owning peer is skipped (counted as a hit), and only
// the genuinely missing plans are searched.
type Manifest struct {
	Requests []json.RawMessage `json:"requests"`
}

// ParseManifest parses a warm manifest, strictly: unknown fields and
// per-entry resolution failures (bad network names, malformed arrays) are
// reported up front with the entry index, before any compilation starts.
func ParseManifest(data []byte) (*Manifest, []compile.Request, error) {
	var m Manifest
	switch err := cliutil.DecodeStrict(data, &m); {
	case errors.Is(err, cliutil.ErrTrailingData):
		return nil, nil, errors.New("warm manifest: trailing data after JSON document")
	case err != nil:
		return nil, nil, fmt.Errorf("warm manifest: %w", err)
	}
	if len(m.Requests) == 0 {
		return nil, nil, errors.New("warm manifest: no requests")
	}
	reqs := make([]compile.Request, 0, len(m.Requests))
	for i, raw := range m.Requests {
		var body compileRequest
		if err := cliutil.DecodeStrict(raw, &body); err != nil {
			return nil, nil, fmt.Errorf("warm manifest: request %d: %w", i, err)
		}
		req, herr := body.resolve()
		if herr != nil {
			return nil, nil, fmt.Errorf("warm manifest: request %d: %s", i, herr.msg)
		}
		reqs = append(reqs, req)
	}
	return &m, reqs, nil
}

// WarmStats summarizes one Warm run.
type WarmStats struct {
	// Total is the number of distinct keys in the manifest (duplicate
	// entries collapse).
	Total int `json:"total"`

	// Compiled counts plans searched here; Hits counts plans already warm
	// (LRU, coalesced, store or peer); Failed counts entries whose
	// compilation errored.
	Compiled int `json:"compiled"`
	Hits     int `json:"hits"`
	Failed   int `json:"failed"`
}

// Warm pre-compiles every manifest request through the tiered fill path,
// running up to concurrency entries at once through fanout.Each, the
// fan-out sweeps use (<=0 selects the server's compile-slot count; actual
// search parallelism is always bounded by the admission semaphore). It
// returns per-entry failures joined into one error after attempting every
// entry — a bad entry does not abandon the rest — and stops early only when
// ctx ends.
func (s *Server) Warm(ctx context.Context, reqs []compile.Request, concurrency int) (WarmStats, error) {
	type item struct {
		key string
		req compile.Request
	}
	seen := make(map[string]bool, len(reqs))
	items := make([]item, 0, len(reqs))
	for i, req := range reqs {
		key, err := compile.Key(req)
		if err != nil {
			return WarmStats{}, fmt.Errorf("warm: request %d: %w", i, err)
		}
		if seen[key] {
			continue
		}
		seen[key] = true
		items = append(items, item{key: key, req: req})
	}
	if concurrency <= 0 {
		concurrency = cap(s.sem)
	}
	var (
		mu    sync.Mutex
		stats = WarmStats{Total: len(items)}
		errs  []error
	)
	fanout.Each(ctx, len(items), concurrency, func(i int) error {
		it := items[i]
		entry, cached, err := s.compilePlan(ctx, it.key, it.req, true, false)
		mu.Lock()
		defer mu.Unlock()
		switch {
		case err != nil:
			stats.Failed++
			errs = append(errs, fmt.Errorf("warm: %s: %w", it.req.Network.Name, err))
		case cached || entry.source != "":
			stats.Hits++
		default:
			stats.Compiled++
		}
		return nil
	})
	if err := ctx.Err(); err != nil {
		errs = append(errs, err)
	}
	return stats, errors.Join(errs...)
}
