package memo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

var bg = context.Background()

// value returns a compute that yields v and counts its runs in n.
func value(v int, n *atomic.Int64) func() (int, error) {
	return func() (int, error) {
		n.Add(1)
		return v, nil
	}
}

// do is c.Do with the value read through the pointer it returns; a nil
// pointer, which only an abandoned join returns, reads as -1.
func do(c *Cache[string, int], ctx context.Context, k string, compute func() (int, error)) (int, Outcome, error) {
	p, out, err := c.Do(ctx, k, compute)
	if p == nil {
		return -1, out, err
	}
	return *p, out, err
}

// result is one Do call's return values, the value read as do reads it.
type result struct {
	v   int
	out Outcome
	err error
}

// blocked starts a leader for k and returns once its compute is running;
// the compute returns (v, err) when release is closed, and the leader's
// result arrives on done.
func blocked(c *Cache[string, int], k string, v int, err error) (release chan struct{}, done chan result) {
	entered := make(chan struct{})
	release, done = make(chan struct{}), make(chan result, 1)
	go func() {
		got, out, e := do(c, bg, k, func() (int, error) {
			close(entered)
			<-release
			return v, err
		})
		done <- result{got, out, e}
	}()
	<-entered
	return release, done
}

// join starts a joiner for k under ctx and waits until it has joined the
// in-flight computation (its dedupe is counted before it blocks).
func join(c *Cache[string, int], ctx context.Context, k string, compute func() (int, error)) chan result {
	before := c.Stats().Dedupes
	done := make(chan result, 1)
	go func() {
		v, out, err := do(c, ctx, k, compute)
		done <- result{v, out, err}
	}()
	for c.Stats().Dedupes == before {
		runtime.Gosched()
	}
	return done
}

func wantStats(t *testing.T, c *Cache[string, int], want Stats) {
	t.Helper()
	if got := c.Stats(); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

func TestHit(t *testing.T) {
	c := New[string, int](4)
	var n atomic.Int64
	if v, out, err := do(c, bg, "k", value(7, &n)); v != 7 || out != Computed || err != nil {
		t.Fatalf("first Do = %v, %v, %v; want 7, Computed", v, out, err)
	}
	if v, out, err := do(c, bg, "k", value(8, &n)); v != 7 || out != Hit || err != nil {
		t.Fatalf("second Do = %v, %v, %v; want the stored 7, Hit", v, out, err)
	}
	// Every hit reads the one stored copy.
	p1, _, _ := c.Do(bg, "k", value(8, &n))
	p2, _, _ := c.Do(bg, "k", value(8, &n))
	if p1 == nil || p1 != p2 {
		t.Error("two hits returned different copies of the stored value")
	}
	if v, ok := Lookup(c, []byte("k")); !ok || v != 7 {
		t.Fatalf("Lookup = %v, %v; want 7", v, ok)
	}
	if v, ok := Lookup(c, []byte("absent")); ok || v != 0 {
		t.Fatalf("Lookup of an absent key = %v, %v", v, ok)
	}
	if n.Load() != 1 {
		t.Errorf("compute ran %d times, want 1", n.Load())
	}
	// Lookup counts its hit and never its miss.
	wantStats(t, c, Stats{Hits: 4, Misses: 1, Entries: 1})
}

func TestJoin(t *testing.T) {
	c := New[string, int](4)
	release, leader := blocked(c, "k", 7, nil)
	var n atomic.Int64
	joiner := join(c, bg, "k", value(8, &n))
	close(release)
	if got := <-leader; got != (result{7, Computed, nil}) {
		t.Fatalf("leader = %+v", got)
	}
	if got := <-joiner; got != (result{7, Joined, nil}) {
		t.Fatalf("joiner = %+v, want the leader's 7, Joined", got)
	}
	if n.Load() != 0 {
		t.Error("the joiner ran its own compute")
	}
	wantStats(t, c, Stats{Hits: 1, Misses: 1, Dedupes: 1, Entries: 1})
}

// TestFailedLeaderRetry: each joiner of a failed flight runs its own
// compute, reports its own outcome, and its success is stored and counted
// as a miss. Two joiners both store; the later store replaces the earlier
// one under the same key.
func TestFailedLeaderRetry(t *testing.T) {
	c := New[string, int](4)
	leaderErr := errors.New("leader's client hung up")
	release, leader := blocked(c, "k", 0, leaderErr)
	var n atomic.Int64
	j1 := join(c, bg, "k", value(1, &n))
	j2 := join(c, bg, "k", value(1, &n))
	close(release)
	if got := <-leader; got.err != leaderErr || got.out != Computed {
		t.Fatalf("leader = %+v, want its own error", got)
	}
	for _, j := range []chan result{j1, j2} {
		if got := <-j; got != (result{1, Computed, nil}) {
			t.Fatalf("joiner = %+v, want its own computed 1", got)
		}
	}
	wantStats(t, c, Stats{Misses: 3, Dedupes: 2, Entries: 1})
	if v, out, err := do(c, bg, "k", value(9, &n)); v != 1 || out != Hit || err != nil {
		t.Fatalf("follow-up = %v, %v, %v; want the stored retry", v, out, err)
	}
	if n.Load() != 2 {
		t.Errorf("computes = %d, want one per joiner", n.Load())
	}
}

// TestJoinerAbandons: a joiner whose own ctx ends stops waiting with
// ctx.Err() (a dedupe, not a hit), and the leader's computation finishes and
// is stored for everyone else.
func TestJoinerAbandons(t *testing.T) {
	c := New[string, int](4)
	release, leader := blocked(c, "k", 7, nil)
	ctx, cancel := context.WithCancel(bg)
	var n atomic.Int64
	joiner := join(c, ctx, "k", value(8, &n))
	cancel()
	if got := <-joiner; got.out != Joined || !errors.Is(got.err, context.Canceled) || got.v != -1 {
		t.Fatalf("joiner = %+v, want Joined with context.Canceled and no value", got)
	}
	wantStats(t, c, Stats{Misses: 1, Dedupes: 1})
	close(release)
	if got := <-leader; got != (result{7, Computed, nil}) {
		t.Fatalf("leader = %+v", got)
	}
	if n.Load() != 0 {
		t.Error("the abandoning joiner ran compute")
	}
	wantStats(t, c, Stats{Misses: 1, Dedupes: 1, Entries: 1})
}

func TestErrorsNotStored(t *testing.T) {
	c := New[string, int](4)
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		v, out, err := do(c, bg, "k", func() (int, error) { return 3, boom })
		if err != boom || out != Computed || v != 3 {
			t.Fatalf("Do %d = %v, %v, %v; want compute's own 3, boom", i, v, out, err)
		}
	}
	if _, ok := Lookup(c, []byte("k")); ok {
		t.Error("a failed computation was stored")
	}
	wantStats(t, c, Stats{Misses: 2})
}

func TestLRU(t *testing.T) {
	var n atomic.Int64
	// Capacity 1: each new key evicts the previous one.
	c := New[string, int](1)
	c.Do(bg, "a", value(1, &n))
	c.Do(bg, "b", value(2, &n))
	if _, ok := Lookup(c, []byte("a")); ok {
		t.Error("capacity 1 kept the older key")
	}
	if v, ok := Lookup(c, []byte("b")); !ok || v != 2 {
		t.Errorf("Lookup(b) = %v, %v; want the newest key", v, ok)
	}
	wantStats(t, c, Stats{Hits: 1, Misses: 2, Evictions: 1, Entries: 1})

	// Capacity 2: a use makes a key most recent, so the other is evicted.
	c = New[string, int](2)
	c.Do(bg, "a", value(1, &n))
	c.Do(bg, "b", value(2, &n))
	c.Do(bg, "a", value(1, &n)) // hit: a is now most recent
	c.Do(bg, "c", value(3, &n)) // evicts b
	if _, ok := Lookup(c, []byte("b")); ok {
		t.Error("the least recently used key survived")
	}
	for _, k := range []string{"a", "c"} {
		if _, ok := Lookup(c, []byte(k)); !ok {
			t.Errorf("key %s evicted out of LRU order", k)
		}
	}
	wantStats(t, c, Stats{Hits: 3, Misses: 3, Evictions: 1, Entries: 2})
}

// TestContains: Contains reports stored values only, moves no counter and
// leaves the LRU order alone, so a capacity-2 cache still evicts the key it
// just reported.
func TestContains(t *testing.T) {
	c := New[string, int](2)
	var n atomic.Int64
	c.Do(bg, "a", value(1, &n))
	c.Do(bg, "b", value(2, &n))
	before := c.Stats()
	if c.Contains("c") || !c.Contains("b") || !c.Contains("a") {
		t.Fatal("Contains disagrees with what is stored")
	}
	wantStats(t, c, before)
	c.Do(bg, "c", value(3, &n)) // a, asked about last, is still the least recently used
	if c.Contains("a") || !c.Contains("b") || !c.Contains("c") {
		t.Error("asking Contains about a key moved it in the LRU order")
	}
	release, leader := blocked(c, "d", 4, nil)
	if c.Contains("d") {
		t.Error("Contains reported a computation still in flight")
	}
	close(release)
	<-leader
	if !c.Contains("d") {
		t.Error("Contains missed a stored computation")
	}
}

// TestNoCapacityCoalesces: a capacity ≤ 0 stores nothing, but identical
// in-flight computations still coalesce.
func TestNoCapacityCoalesces(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := New[string, int](capacity)
		release, leader := blocked(c, "k", 7, nil)
		var n atomic.Int64
		joiner := join(c, bg, "k", value(8, &n))
		close(release)
		if got := <-leader; got != (result{7, Computed, nil}) {
			t.Fatalf("capacity %d: leader = %+v", capacity, got)
		}
		if got := <-joiner; got != (result{7, Joined, nil}) {
			t.Fatalf("capacity %d: joiner = %+v, want a coalesced join", capacity, got)
		}
		if _, ok := Lookup(c, []byte("k")); ok {
			t.Errorf("capacity %d stored a value", capacity)
		}
		if v, out, _ := do(c, bg, "k", value(8, &n)); v != 8 || out != Computed {
			t.Errorf("capacity %d: later Do = %v, %v; want a fresh compute", capacity, v, out)
		}
		wantStats(t, c, Stats{Hits: 1, Misses: 2, Dedupes: 1})
	}
}

// TestLookupZeroAllocs pins the warm plan path's lookup: indexing with
// string(key) must not materialize the key, on a hit or a miss.
func TestLookupZeroAllocs(t *testing.T) {
	c := New[string, *int](4)
	seven := 7
	c.Do(bg, "key", func() (*int, error) { return &seven, nil })
	hit, miss := []byte("key"), []byte("nope")
	if n := testing.AllocsPerRun(100, func() {
		if v, ok := Lookup(c, hit); !ok || *v != 7 {
			t.Fatal("Lookup missed a stored key")
		}
		if _, ok := Lookup(c, miss); ok {
			t.Fatal("Lookup hit an absent key")
		}
	}); n != 0 {
		t.Errorf("Lookup allocates %v times per hit+miss, want 0", n)
	}
}

// TestMissAllocs pins the cost of a miss at a full cache: the record, its
// done channel and the LRU element, nothing else.
func TestMissAllocs(t *testing.T) {
	c := New[int, int](8)
	k := 0
	compute := func() (int, error) { return 1, nil }
	if n := testing.AllocsPerRun(1000, func() {
		k++
		c.Do(bg, k, compute)
	}); n > 3 {
		t.Errorf("a miss allocates %v times, want at most 3", n)
	}
}

// TestHammer: many concurrent callers on a few keys run exactly one compute
// per key, every call is a hit or a miss, and Contains calls among them
// count nothing. Run under -race.
func TestHammer(t *testing.T) {
	const keys, callers, rounds = 4, 32, 50
	c := New[string, int](keys)
	var computes [keys]atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % keys
				v, _, err := do(c, bg, fmt.Sprint(i), func() (int, error) {
					computes[i].Add(1)
					runtime.Gosched()
					return i, nil
				})
				if err != nil || v != i {
					t.Errorf("key %d = %v, %v", i, v, err)
				}
				Lookup(c, []byte(fmt.Sprint(i)))
				c.Contains(fmt.Sprint((i + 1) % keys))
			}
		}(g)
	}
	wg.Wait()
	for i := range computes {
		if n := computes[i].Load(); n != 1 {
			t.Errorf("key %d computed %d times, want 1", i, n)
		}
	}
	st := c.Stats()
	if st.Misses != keys || st.Hits != 2*callers*rounds-keys || st.Entries != keys || st.Evictions != 0 {
		t.Errorf("stats = %+v, want %d misses and every other call a hit", st, keys)
	}
}
