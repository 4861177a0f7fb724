// Package peer is vwsdkd's fleet tier: a thin HTTP peer protocol in which N
// statically configured instances own consistent-hash ranges of the
// compile.Key space and proxy cache misses to the owner, so a fleet behaves
// like one big plan cache — every key is compiled once, anywhere, and served
// everywhere.
//
// The protocol is deliberately minimal: there is no membership gossip, no
// replication and no invalidation, because none is needed. compile.Key is a
// pure content address (see internal/store), so owners never disagree about
// a key's value; the ring only decides who performs — and persists — the one
// compilation. A proxied request is an ordinary POST /v1/compile carrying
// the HopHeader, which the receiving node treats as a do-not-re-proxy marker
// (one hop maximum, so a stale or disagreeing ring can never form a proxy
// cycle). A node that cannot reach an owner degrades gracefully: it compiles
// locally and answers as if it had no peers.
//
// Ring agreement is by configuration: every node is started with the same
// -peers list (order-insensitive — points are hashed per address) and finds
// itself in it by address, with loopback and unspecified-host forms
// normalized so ":8080", "localhost:8080" and "127.0.0.1:8080" identify the
// same instance.
package peer

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"time"
)

// HopHeader marks a request as already proxied once. A node receiving it
// must answer locally — serve its cache, or compile — and never re-proxy,
// bounding every request to one hop even if rings disagree across a config
// rollout. The value is the sending node's own ring address, for logs.
const HopHeader = "X-Vwsdk-Peer-Hop"

// virtualPoints is how many ring points each node contributes. 128 keeps
// the expected per-node share within a few percent of uniform for small
// fleets while the ring stays a few KiB.
const virtualPoints = 128

// Ring maps compile keys onto the statically configured fleet by
// consistent hashing. Build one with NewRing; a Ring is immutable and safe
// for concurrent use.
type Ring struct {
	self   string // normalized self address; "" when self is not in the ring
	points []point
	nodes  []string
}

// point is one virtual node: a position on the 64-bit hash circle and the
// address that owns it.
type point struct {
	hash uint64
	addr string
}

// NewRing builds the ring over the given peer addresses ("host:port"),
// identifying this node by self. The returned ring hashes addresses exactly
// as configured — every fleet member must be started with the same list for
// the nodes to agree on ownership — while self-identification is normalized
// (loopback forms and an empty listen host all match). self may be absent
// from peers (a warm-only or observer node): then every key is remote.
func NewRing(self string, peers []string) (*Ring, error) {
	r := &Ring{}
	seen := make(map[string]bool, len(peers))
	for _, p := range peers {
		p = strings.TrimSpace(p)
		if p == "" {
			continue
		}
		if seen[p] {
			return nil, fmt.Errorf("peer: duplicate peer %q", p)
		}
		seen[p] = true
		r.nodes = append(r.nodes, p)
		for i := 0; i < virtualPoints; i++ {
			r.points = append(r.points, point{hash: pointHash(p, i), addr: p})
		}
		if sameNode(p, self) {
			if r.self != "" && r.self != p {
				return nil, fmt.Errorf("peer: both %q and %q match self %q", r.self, p, self)
			}
			r.self = p
		}
	}
	if len(r.nodes) == 0 {
		return nil, fmt.Errorf("peer: no peers configured")
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].addr < r.points[j].addr
	})
	sort.Strings(r.nodes)
	return r, nil
}

// Nodes returns the ring members, sorted.
func (r *Ring) Nodes() []string { return r.nodes }

// Self returns this node's address as it appears in the ring, or "" when
// the configured self matched no peer.
func (r *Ring) Self() string { return r.self }

// Owner returns the address owning key and whether that owner is this node
// itself (in which case the caller must compute locally, not proxy).
func (r *Ring) Owner(key string) (addr string, self bool) {
	h := keyHash(key)
	// First point clockwise from h; wrap to the start past the last point.
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	addr = r.points[i].addr
	return addr, addr == r.self
}

// pointHash places virtual node i of addr on the circle.
func pointHash(addr string, i int) uint64 {
	h := fnv.New64a()
	io.WriteString(h, addr)
	fmt.Fprintf(h, "#%d", i)
	return h.Sum64()
}

// keyHash places a compile key on the circle.
func keyHash(key string) uint64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	return h.Sum64()
}

// sameNode reports whether a configured peer address and this node's own
// address name the same instance: ports must match and the hosts must be
// equal, or both loopback/unspecified ("", "localhost", 127.0.0.0/8, ::1,
// ::). This is the "self-exclusion on loopback" rule — a node listening on
// ":8080" recognizes itself in a peers list naming "127.0.0.1:8080".
func sameNode(peer, self string) bool {
	if self == "" {
		return false
	}
	if peer == self {
		return true
	}
	ph, pp, err := net.SplitHostPort(peer)
	if err != nil {
		return false
	}
	sh, sp, err := net.SplitHostPort(self)
	if err != nil {
		return false
	}
	if pp != sp {
		return false
	}
	return ph == sh || (isLocalHost(ph) && isLocalHost(sh))
}

// isLocalHost reports whether host is a name or address of the local
// machine's loopback/unspecified interface.
func isLocalHost(host string) bool {
	if host == "" || host == "localhost" {
		return true
	}
	ip := net.ParseIP(host)
	return ip != nil && (ip.IsLoopback() || ip.IsUnspecified())
}

// Client proxies compile requests to their owners. Build one with
// NewClient; a Client is safe for concurrent use.
type Client struct {
	ring *Ring
	hc   *http.Client
	path string
}

// DefaultTimeout bounds one proxy hop when no timeout is configured. It is
// deliberately short relative to a cold search: a slow peer is treated as
// down and the node degrades to local compute rather than queueing behind
// the network.
const DefaultTimeout = 10 * time.Second

// NewClient returns a proxy client over ring. rt overrides the HTTP
// transport (nil selects http.DefaultTransport; in-process fleets inject a
// loopback transport); timeout bounds one hop (0 selects DefaultTimeout).
func NewClient(ring *Ring, rt http.RoundTripper, timeout time.Duration) *Client {
	if timeout <= 0 {
		timeout = DefaultTimeout
	}
	return &Client{
		ring: ring,
		hc:   &http.Client{Transport: rt, Timeout: timeout},
		path: "/v1/compile",
	}
}

// Ring returns the client's ring.
func (c *Client) Ring() *Ring { return c.ring }

// maxResponseBytes bounds a peer response read; serialized zoo plans are
// tens of KiB, so 16 MiB is comfortably beyond any legitimate plan.
const maxResponseBytes = 16 << 20

// Fetch posts body (a /v1/compile wire request) to owner and returns the
// serialized plan bytes. Any transport error, non-200 status or oversized
// response is an error; the caller falls back to local compute.
func (c *Client) Fetch(ctx context.Context, owner string, body []byte) ([]byte, error) {
	url := "http://" + owner + c.path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("peer: build request for %s: %w", owner, err)
	}
	req.Header.Set("Content-Type", "application/json")
	// The value identifies the sender for logs; hop detection is by header
	// presence, but a non-empty value keeps Get-based checks working too.
	from := c.ring.Self()
	if from == "" {
		from = "-"
	}
	req.Header.Set(HopHeader, from)
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("peer: %s: %w", owner, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes+1))
	if err != nil {
		return nil, fmt.Errorf("peer: read %s response: %w", owner, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer: %s answered %d: %s", owner, resp.StatusCode, firstLine(data))
	}
	if len(data) > maxResponseBytes {
		return nil, fmt.Errorf("peer: %s response exceeds %d bytes", owner, maxResponseBytes)
	}
	return data, nil
}

// MemTransport is an in-process http.RoundTripper that dispatches by host
// to a registered http.Handler — the loopback fabric for in-process fleets
// (tests and benchmarks wire N Servers together without sockets).
// Hosts absent from the map fail like an unreachable peer.
type MemTransport map[string]http.Handler

// RoundTrip implements http.RoundTripper. The handler's request carries the
// caller's cancellation but none of its context's values, as a request
// arriving over a connection would, so a traced caller does not record the
// owner's spans.
func (t MemTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	h, ok := t[req.URL.Host]
	if !ok {
		return nil, fmt.Errorf("peer: no route to %s", req.URL.Host)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req.WithContext(valueless{req.Context()}))
	return rec.Result(), nil
}

// valueless is a context that keeps its parent's deadline and cancellation
// and hides its values.
type valueless struct{ context.Context }

func (valueless) Value(any) any { return nil }

// firstLine trims an error body for the wrapped error message.
func firstLine(data []byte) string {
	s := strings.TrimSpace(string(data))
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		s = s[:i]
	}
	if len(s) > 200 {
		s = s[:200]
	}
	return s
}
