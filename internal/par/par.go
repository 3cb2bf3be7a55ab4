// Package par is the deterministic worker pool shared by the fl round
// engine and the gs server-side aggregation. It provides a single
// primitive, For, that fans n independent iterations out over a bounded
// pool of goroutines. The caller is worker 0 of its own pool: it runs
// iterations beside the goroutines it starts rather than waiting idle.
//
// The pool itself guarantees nothing about ordering — iterations are
// claimed dynamically, so scheduling is nondeterministic. Callers keep
// results bit-deterministic by construction: every iteration writes only
// into slots indexed by its iteration number (or into state it exclusively
// owns), and any floating-point reduction over those slots runs after For
// returns, in a fixed order that does not depend on the worker count. See
// internal/fl/parallel.go for the engine's shared-state audit and
// internal/gs for the fixed-order aggregation reduction built on top.
package par

import (
	"math"
	"sync"
	"sync/atomic"
)

// PoolSize returns how many goroutines For(workers, n, ·) uses:
// min(workers, n), and at least 1 (workers <= 1 means sequential).
func PoolSize(workers, n int) int {
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Chunks returns the chunk count for a coordinate-partitioned reduction
// over n elements on `workers` goroutines: 1 on the sequential path,
// otherwise 4× the pool size (oversubscription for load balance), capped
// at n. Chunk boundaries partition disjoint coordinates, so the count
// only affects scheduling, never results.
func Chunks(workers, n int) int {
	chunks := PoolSize(workers, n)
	if chunks > 1 {
		chunks = min(chunks*4, n)
	}
	return chunks
}

// BumpEpoch advances an epoch-stamp generation counter and returns the new
// generation, clearing the mark slab on the (once per 2³¹ calls) int32
// wrap so a stale stamp can never alias a live generation. This is the
// single source of the epoch-slab invariant of the gs reduction slab.
func BumpEpoch(gen *int32, slab []int32) int32 {
	if *gen == math.MaxInt32 {
		for i := range slab {
			slab[i] = 0
		}
		*gen = 0
	}
	*gen++
	return *gen
}

// For runs fn(i, worker) for every i in [0, n). With workers <= 1 every
// call runs inline in index order — the sequential legacy path. Otherwise
// PoolSize(workers, n) goroutines claim iterations dynamically (scheduling
// order is nondeterministic), so callers must write results into slots
// indexed by i and reduce in fixed order afterwards; worker is the stable
// pool index in [0, PoolSize) for per-worker scratch. The calling
// goroutine is worker 0 and starts PoolSize−1 more, so a call allocates
// the one shared forCall and one closure per started goroutine. A panic
// in any iteration stops further claims and is re-raised on the calling
// goroutine once every worker has stopped, matching the sequential path's
// failure mode.
func For(workers, n int, fn func(i, worker int)) {
	workers = PoolSize(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	c := &forCall{n: n, fn: fn}
	c.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go c.work(w)
	}
	c.run(0)
	c.wg.Wait()
	if c.panicked {
		panic(c.panicVal)
	}
}

// forCall is one For call's shared state, in one allocation.
type forCall struct {
	next    atomic.Int64
	aborted atomic.Bool
	n       int
	fn      func(i, worker int)
	wg      sync.WaitGroup

	panicMu  sync.Mutex
	panicked bool
	panicVal any
}

// work is a started goroutine's share: run, then report done.
func (c *forCall) work(worker int) {
	defer c.wg.Done()
	c.run(worker)
}

// run claims iterations until none is left or one has panicked.
func (c *forCall) run(worker int) {
	defer func() {
		if r := recover(); r != nil {
			// Keep the original panic value so callers can match it
			// exactly as on the sequential path (the rethrow trades the
			// worker's stack for the caller's).
			c.panicMu.Lock()
			if !c.panicked {
				c.panicked, c.panicVal = true, r
			}
			c.panicMu.Unlock()
			c.aborted.Store(true)
		}
	}()
	for !c.aborted.Load() {
		i := int(c.next.Add(1)) - 1
		if i >= c.n {
			return
		}
		c.fn(i, worker)
	}
}
