package par

import (
	"math"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// The pool primitive itself (For, PoolSize) is additionally exercised by
// internal/fl's parallel_test suite through the engine's wrappers.

func TestPoolSize(t *testing.T) {
	tests := []struct{ workers, n, want int }{
		{0, 10, 1}, {1, 10, 1}, {4, 10, 4}, {16, 3, 3}, {4, 0, 1}, {-2, 5, 1},
	}
	for _, tt := range tests {
		if got := PoolSize(tt.workers, tt.n); got != tt.want {
			t.Fatalf("PoolSize(%d, %d) = %d, want %d", tt.workers, tt.n, got, tt.want)
		}
	}
}

func TestChunks(t *testing.T) {
	tests := []struct{ workers, n, want int }{
		{0, 100, 1},  // sequential: one chunk
		{1, 100, 1},  // one worker: one chunk
		{4, 100, 16}, // 4×oversubscription
		{4, 6, 6},    // capped at n (PoolSize(4,6)=4, 16 capped to 6)
		{8, 2, 2},    // pool shrinks to n first
		{4, 0, 1},    // empty range still yields one (empty) chunk
	}
	for _, tt := range tests {
		if got := Chunks(tt.workers, tt.n); got != tt.want {
			t.Fatalf("Chunks(%d, %d) = %d, want %d", tt.workers, tt.n, got, tt.want)
		}
	}
}

// TestBumpEpochWrap drives the generation counter across the int32 wrap
// and checks the slab is cleared so stale stamps cannot alias.
func TestBumpEpochWrap(t *testing.T) {
	slab := []int32{math.MaxInt32, 5, 0}
	gen := int32(math.MaxInt32)
	got := BumpEpoch(&gen, slab)
	if got != 1 || gen != 1 {
		t.Fatalf("post-wrap generation = %d, want 1", got)
	}
	for i, v := range slab {
		if v != 0 {
			t.Fatalf("slab[%d] = %d after wrap, want 0", i, v)
		}
	}
	if next := BumpEpoch(&gen, slab); next != 2 {
		t.Fatalf("next generation = %d, want 2", next)
	}
}

// TestForAllocsAtMostPoolSize pins For's cost: the shared call state plus
// one closure per goroutine it starts — at most PoolSize allocations,
// none on the sequential path.
func TestForAllocsAtMostPoolSize(t *testing.T) {
	fn := func(int, int) {}
	for _, workers := range []int{1, 2, 4, 8} {
		const n = 16
		got := testing.AllocsPerRun(200, func() { For(workers, n, fn) })
		if limit := PoolSize(workers, n); got > float64(limit) || (limit == 1 && got != 0) {
			t.Fatalf("workers=%d: For allocates %.1f objects a call, want at most %d", workers, got, limit)
		}
	}
}

// TestForCallerPanicWaitsForWorkers panics in an iteration the caller runs
// itself (worker 0) while the started workers are mid-iteration: For must
// re-raise the original value, and only once every other worker stopped.
func TestForCallerPanicWaitsForWorkers(t *testing.T) {
	var running, ran atomic.Int32
	defer func() {
		if r := recover(); r != "caller" {
			t.Fatalf("recovered %v, want the caller's panic value", r)
		}
		if n := running.Load(); n != 0 {
			t.Fatalf("For re-raised with %d iterations still running", n)
		}
		if ran.Load() == 0 {
			t.Fatal("no started worker ran an iteration")
		}
	}()
	For(4, 64, func(_, w int) {
		if w == 0 {
			for running.Load() == 0 { // panic while a started worker is busy
				runtime.Gosched()
			}
			panic("caller")
		}
		running.Add(1)
		defer running.Add(-1)
		time.Sleep(5 * time.Millisecond)
		ran.Add(1)
	})
	t.Fatal("For returned without panicking")
}

// BenchmarkFor times one empty fan-out of 32 iterations on 2 workers, the
// engine's fan-out at engine_adaptive's cohort on a 2-core host: the pool's
// own cost per call, and its allocations.
func BenchmarkFor(b *testing.B) {
	fn := func(int, int) {}
	b.ReportAllocs()
	for b.Loop() {
		For(2, 32, fn)
	}
}
