// Package par is the deterministic worker pool shared by the fl round
// engine and the gs server-side aggregation. It provides a single
// primitive, For, that fans n independent iterations out over a bounded
// pool of goroutines.
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
// single source of the epoch-slab invariant shared by fl.JSet and the gs
// aggregation scratch.
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
// pool index in [0, PoolSize) for per-worker scratch. A panic in any
// iteration is re-raised on the calling goroutine, matching the sequential
// path's failure mode.
func For(workers, n int, fn func(i, worker int)) {
	workers = PoolSize(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i, 0)
		}
		return
	}
	var (
		next     int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
		aborted  atomic.Bool
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					// Keep the original panic value so callers can match
					// it exactly as on the sequential path (the rethrow
					// trades the worker's stack for the coordinator's).
					panicMu.Lock()
					if panicVal == nil {
						panicVal = r
					}
					panicMu.Unlock()
					aborted.Store(true)
				}
			}()
			for !aborted.Load() {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= n {
					return
				}
				fn(i, worker)
			}
		}(w)
	}
	wg.Wait()
	if panicVal != nil {
		panic(panicVal)
	}
}
