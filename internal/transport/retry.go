// Dial with retries. A transient connection refusal — the coordinator
// restarting, a shard not yet listening, a dropped SYN — must not turn
// into a dead training run, so clients and shards dial through
// DialRetry: bounded attempts, exponential backoff with jitter,
// per-attempt deadlines, and context cancellation.
package transport

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"time"
)

// RetryPolicy bounds a DialRetry loop. Zero values select the
// defaults, so RetryPolicy{} is a usable policy.
type RetryPolicy struct {
	// Attempts is the maximum number of dials (default 10).
	Attempts int
	// BaseDelay is the backoff before the second attempt; it doubles
	// per attempt up to MaxDelay (defaults 25ms and 2s).
	BaseDelay, MaxDelay time.Duration
	// AttemptTimeout bounds each individual dial (default 5s).
	AttemptTimeout time.Duration
	// Seed drives the jitter stream; 0 seeds from the clock. Tests pass
	// a fixed seed for reproducible schedules — jitter only shifts
	// timing, never the protocol bytes, so determinism of results does
	// not depend on it.
	Seed int64
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 10
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 25 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 5 * time.Second
	}
	if p.Seed == 0 {
		p.Seed = time.Now().UnixNano()
	}
	return p
}

// DialRetry is Dial with a bounded exponential-backoff retry loop:
// each attempt gets its own deadline, the sleep between attempts is
// half fixed backoff and half jitter (decorrelating a thundering herd
// of clients redialing a restarted coordinator), and ctx cancels both
// the sleeps and the in-flight dial. The returned Conn uses the binary
// frame codec, exactly as Dial.
func DialRetry(ctx context.Context, addr string, p RetryPolicy) (Conn, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(p.Seed))
	delay := p.BaseDelay
	var lastErr error
	for attempt := 0; attempt < p.Attempts; attempt++ {
		if attempt > 0 {
			sleep := delay/2 + time.Duration(rng.Int63n(int64(delay/2)+1))
			timer := time.NewTimer(sleep)
			select {
			case <-ctx.Done():
				timer.Stop()
				return nil, fmt.Errorf("transport: dial %s: %w (after %d attempts: %v)", addr, ctx.Err(), attempt, lastErr)
			case <-timer.C:
			}
			if delay *= 2; delay > p.MaxDelay {
				delay = p.MaxDelay
			}
		}
		d := net.Dialer{Timeout: p.AttemptTimeout}
		conn, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return NewBinConn(conn), nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, fmt.Errorf("transport: dial %s: %w (after %d attempts: %v)", addr, ctx.Err(), attempt+1, lastErr)
		}
	}
	return nil, fmt.Errorf("transport: dial %s: %d attempts exhausted: %w", addr, p.Attempts, lastErr)
}
