package memo

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitProbe is a context that reports when a caller first asks for its
// Done channel — which Get does only when it starts waiting on another
// caller's in-flight entry. Tests use it to sequence a leader's outcome
// after a waiter is known to be blocked, without sleeps.
type waitProbe struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func newWaitProbe(ctx context.Context) *waitProbe {
	return &waitProbe{Context: ctx, waiting: make(chan struct{})}
}

func (p *waitProbe) Done() <-chan struct{} {
	p.once.Do(func() { close(p.waiting) })
	return p.Context.Done()
}

// leader starts a Get for key whose compute blocks until release is
// closed and then returns (v, err). It returns once compute is running,
// plus a channel delivering the leader's result.
func leader(c *Cache[string, int], key string, v int, err error, release <-chan struct{}) <-chan error {
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, _, gotErr := c.Get(context.Background(), key, func() (int, error) {
			close(started)
			<-release
			return v, err
		})
		done <- gotErr
	}()
	<-started
	return done
}

func TestSingleflight(t *testing.T) {
	c := New[string, int](nil)
	const callers = 32
	var computes atomic.Int64
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int, callers)
	hits := make([]bool, callers)
	arrived := make(chan struct{}, callers)
	finished := make(chan struct{})
	defer close(finished)
	for i := 0; i < callers; i++ {
		probe := newWaitProbe(context.Background())
		go func() {
			select {
			case <-probe.waiting:
				arrived <- struct{}{}
			case <-finished: // the leader never waits
			}
		}()
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, hit, err := c.Get(probe, "k", func() (int, error) {
				computes.Add(1)
				<-release
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], hits[i] = v, hit
		}(i)
	}
	// Every caller but the leader blocks on the in-flight entry before
	// the leader may finish.
	for i := 0; i < callers-1; i++ {
		<-arrived
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("computed %d times under %d concurrent callers, want 1", n, callers)
	}
	misses := 0
	for i := range vals {
		if vals[i] != 42 {
			t.Fatalf("caller %d got %d, want 42", i, vals[i])
		}
		if !hits[i] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d callers reported a miss, want exactly the leader", misses)
	}
	if st := c.Stats(); st.Hits != callers-1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats %+v, want %d hits / 1 miss / 1 entry", st, callers-1)
	}
}

func TestCostLRUOrder(t *testing.T) {
	c := New[string, int](func(v int) int64 { return int64(v) })
	c.SetLimit(10)
	get := func(key string, v int) {
		t.Helper()
		if _, _, err := c.Get(context.Background(), key, func() (int, error) { return v, nil }); err != nil {
			t.Fatal(err)
		}
	}
	get("a", 4)
	get("b", 3)
	get("c", 2)
	get("a", 0) // hit: a becomes the most recent
	if got, want := c.Values(), []int{4, 2, 3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Values() = %v, want LRU order %v", got, want)
	}
	get("d", 3) // 4+2+3+3 = 12 > 10: evicts the coldest, b
	if got, want := c.Values(), []int{3, 4, 2}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after eviction Values() = %v, want %v", got, want)
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 3 {
		t.Fatalf("stats %+v, want 1 eviction / 3 entries", st)
	}
	c.SetLimit(5) // shrinking evicts immediately, coldest first
	if got, want := c.Values(), []int{3}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after shrink Values() = %v, want %v", got, want)
	}
	c.SetLimit(0)
	get("e", 100) // unbounded again: retained
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 3 {
		t.Fatalf("stats %+v, want 2 entries / 3 evictions", st)
	}
}

func TestOversizedEntry(t *testing.T) {
	c := New[string, int](func(v int) int64 { return int64(v) })
	c.SetLimit(5)
	v, hit, err := c.Get(context.Background(), "big", func() (int, error) { return 9, nil })
	if err != nil || hit || v != 9 {
		t.Fatalf("oversized Get = (%d, %v, %v), want (9, false, nil)", v, hit, err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want the oversized entry evicted immediately", st)
	}
	computed := false
	if _, _, err := c.Get(context.Background(), "big", func() (int, error) { computed = true; return 9, nil }); err != nil {
		t.Fatal(err)
	}
	if !computed {
		t.Error("oversized entry was retained")
	}
}

func TestNoEvictionWhileInFlight(t *testing.T) {
	c := New[string, int](nil)
	c.SetLimit(1)
	release := make(chan struct{})
	done := leader(c, "slow", 1, nil, release)
	// Completed entries churn through the one-entry budget while the
	// slow computation is still in flight.
	for i := 0; i < 3; i++ {
		if _, _, err := c.Get(context.Background(), fmt.Sprint("fast", i), func() (int, error) { return i, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Evictions != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 evictions / 1 entry", st)
	}
	// A second caller for the in-flight key still joins it.
	probe := newWaitProbe(context.Background())
	joined := make(chan bool, 1)
	go func() {
		_, hit, _ := c.Get(probe, "slow", func() (int, error) { return -1, errors.New("recomputed") })
		joined <- hit
	}()
	<-probe.waiting
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !<-joined {
		t.Error("waiter did not share the in-flight computation")
	}
}

func TestErrorNotCached(t *testing.T) {
	c := New[string, int](nil)
	boom := errors.New("boom")
	if _, _, err := c.Get(context.Background(), "k", func() (int, error) { return 0, boom }); err != boom {
		t.Fatalf("Get = %v, want the compute error", err)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("failed entry retained: %+v", st)
	}
	v, hit, err := c.Get(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("retry = (%d, %v, %v), want a fresh computation", v, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Hits != 0 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses / 0 hits / 1 entry", st)
	}
}

func TestConcurrentWaiterOfFailedLeaderRecomputes(t *testing.T) {
	c := New[string, int](nil)
	release := make(chan struct{})
	boom := errors.New("leader failed")
	done := leader(c, "k", 0, boom, release)

	probe := newWaitProbe(context.Background())
	type result struct {
		v   int
		hit bool
		err error
	}
	res := make(chan result, 1)
	go func() {
		v, hit, err := c.Get(probe, "k", func() (int, error) { return 5, nil })
		res <- result{v, hit, err}
	}()
	<-probe.waiting
	close(release)
	if err := <-done; err != boom {
		t.Fatalf("leader got %v, want its own error", err)
	}
	r := <-res
	if r.err != nil || r.hit || r.v != 5 {
		t.Fatalf("waiter = %+v, want it to recompute and succeed", r)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses (leader + retry) / 1 entry", st)
	}
}

// TestPanickingLeaderSettles: a leader whose compute panics re-panics
// on its own stack, but its entry settles as failed, so a later Get of
// the same key recomputes instead of waiting on a dead entry.
func TestPanickingLeaderSettles(t *testing.T) {
	c := New[string, int](nil)
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("leader recovered %v, want its own panic", r)
			}
		}()
		c.Get(context.Background(), "k", func() (int, error) { panic("boom") })
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	v, hit, err := c.Get(ctx, "k", func() (int, error) { return 7, nil })
	if err != nil || hit || v != 7 {
		t.Fatalf("Get after a panicking leader = (%d, %v, %v), want a fresh computation", v, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats %+v, want 2 misses / 1 entry", st)
	}
}

// TestPanickingLeaderWaiterRecomputes: a waiter blocked on a leader
// whose compute panics follows the failed-leader rule and recomputes.
func TestPanickingLeaderWaiterRecomputes(t *testing.T) {
	c := New[string, int](nil)
	started, release := make(chan struct{}), make(chan struct{})
	recovered := make(chan any, 1)
	go func() {
		defer func() { recovered <- recover() }()
		c.Get(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			panic("boom")
		})
	}()
	<-started
	probe := newWaitProbe(context.Background())
	type result struct {
		v   int
		hit bool
		err error
	}
	res := make(chan result, 1)
	go func() {
		v, hit, err := c.Get(probe, "k", func() (int, error) { return 5, nil })
		res <- result{v, hit, err}
	}()
	<-probe.waiting
	close(release)
	if r := <-recovered; r != "boom" {
		t.Fatalf("leader recovered %v, want its own panic", r)
	}
	select {
	case r := <-res:
		if r.err != nil || r.hit || r.v != 5 {
			t.Fatalf("waiter = %+v, want it to recompute and succeed", r)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter of a panicking leader hangs")
	}
}

func TestCancelledWaiterKeepsLeader(t *testing.T) {
	c := New[string, int](nil)
	release := make(chan struct{})
	done := leader(c, "k", 3, nil, release)

	ctx, cancel := context.WithCancel(context.Background())
	probe := newWaitProbe(ctx)
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Get(probe, "k", func() (int, error) { return -1, errors.New("waiter computed") })
		errc <- err
	}()
	<-probe.waiting
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	v, hit, err := c.Get(context.Background(), "k", func() (int, error) { return -1, errors.New("leader evicted") })
	if err != nil || !hit || v != 3 {
		t.Fatalf("after cancel = (%d, %v, %v), want the leader's cached result", v, hit, err)
	}
}

// lateCancel is a context whose cancellation shows only through Err:
// its Done channel never fires, so a blocked waiter wakes on the
// leader's outcome and must then consult Err itself.
type lateCancel struct {
	*waitProbe
	cancelled atomic.Bool
}

func (c *lateCancel) Err() error {
	if c.cancelled.Load() {
		return context.Canceled
	}
	return nil
}

func TestCancelledWaiterOfFailedLeaderStops(t *testing.T) {
	c := New[string, int](nil)
	release := make(chan struct{})
	done := leader(c, "k", 0, errors.New("boom"), release)

	ctx := &lateCancel{waitProbe: newWaitProbe(context.Background())}
	errc := make(chan error, 1)
	go func() {
		_, _, err := c.Get(ctx, "k", func() (int, error) { return 1, nil })
		errc <- err
	}()
	<-ctx.waiting
	ctx.cancelled.Store(true)
	close(release)
	<-done
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled waiter of a failed leader returned %v, want context.Canceled without retrying", err)
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Errorf("stats %+v, want only the leader's miss", st)
	}
}

func TestRefreshConcurrent(t *testing.T) {
	c := New[string, int](nil)
	_, gen0, _, err := c.Refresh(context.Background(), "k", 0, func() (int, error) { return 1, nil })
	if err != nil || gen0 == 0 {
		t.Fatalf("initial Refresh: gen=%d err=%v", gen0, err)
	}
	const callers = 16
	var computes atomic.Int64
	gens := make([]uint64, callers)
	vals := make([]int, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, gen, _, err := c.Refresh(context.Background(), "k", gen0, func() (int, error) {
				return int(computes.Add(1)) + 1, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], gens[i] = v, gen
		}(i)
	}
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Fatalf("%d stale refreshers ran %d computes, want 1", callers, n)
	}
	for i := range gens {
		if gens[i] == gen0 || gens[i] != gens[0] || vals[i] != 2 {
			t.Fatalf("refresher %d got (v=%d, gen=%d), want the one new entry (v=2, gen=%d != %d)", i, vals[i], gens[i], gens[0], gen0)
		}
	}
	// A straggler still holding gen0 is served the newer entry.
	v, gen, hit, err := c.Refresh(context.Background(), "k", gen0, func() (int, error) { return -1, nil })
	if err != nil || !hit || v != 2 || gen != gens[0] {
		t.Fatalf("straggler = (%d, %d, %v, %v), want a hit on the refreshed entry", v, gen, hit, err)
	}
	if st := c.Stats(); st.Misses != 2 || st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats %+v, want 2 misses / 1 entry / no evictions (replacement is not eviction)", st)
	}
}

// TestStress is the -race workout: goroutines hammer a small bounded
// cache over mixed keys with failing computations and staleness
// refreshes. Every served value must belong to its key, and the
// counters must stay consistent with the bound.
func TestStress(t *testing.T) {
	c := New[int, int](func(v int) int64 { return int64(v%3 + 1) })
	c.SetLimit(12)
	const workers, rounds, keys = 16, 300, 24
	var lookups atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var gen uint64
			for r := 0; r < rounds; r++ {
				key := (w*7 + r*13) % keys
				fail := (w+r)%11 == 0
				compute := func() (int, error) {
					if fail {
						return 0, errors.New("transient failure")
					}
					return key * 10, nil
				}
				lookups.Add(1)
				var v int
				var err error
				if r%5 == 0 {
					v, gen, _, err = c.Refresh(context.Background(), key, gen, compute)
				} else {
					v, _, err = c.Get(context.Background(), key, compute)
				}
				if err == nil && v != key*10 {
					t.Errorf("key %d served value %d", key, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses < lookups.Load() {
		t.Errorf("stats %+v account for fewer than %d lookups", st, lookups.Load())
	}
	if st.Entries > 12 {
		t.Errorf("%d entries retained past a budget of 12 unit-or-more costs", st.Entries)
	}
	if got := len(c.Values()); got != st.Entries {
		t.Errorf("Values() has %d values, Stats reports %d entries", got, st.Entries)
	}
}
