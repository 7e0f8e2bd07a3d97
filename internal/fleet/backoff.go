package fleet

import (
	"context"
	"errors"
	"math/rand"
	"time"
)

// Backoff is a jittered exponential retry policy: delay(n) = Base ×
// backoffFactor^n, capped at Max, then spread uniformly over
// [d×(1−backoffJitter), d×(1+backoffJitter)] so a fleet of workers
// retrying against a restarting coordinator does not stampede it in
// lockstep.
//
// The zero value is usable and selects the defaults below. Rand and Sleep
// are injectable for deterministic tests; production code leaves them nil.
type Backoff struct {
	// Base is the pre-jitter first delay (default 100ms).
	Base time.Duration
	// Max caps the pre-jitter delay (default 10s).
	Max time.Duration
	// Rand returns a uniform sample in [0, 1); nil uses math/rand.
	Rand func() float64
	// Sleep waits for d or until ctx is cancelled, returning ctx.Err() in
	// the latter case; nil uses a timer-backed default.
	Sleep func(ctx context.Context, d time.Duration) error
	// OnRetry, when non-nil, observes every retried failure (attempt is
	// 0-based) — the hook the fleet worker uses to count upload retries.
	OnRetry func(attempt int, err error)
}

func (b Backoff) base() time.Duration {
	if b.Base <= 0 {
		return 100 * time.Millisecond
	}
	return b.Base
}

func (b Backoff) max() time.Duration {
	if b.Max <= 0 {
		return 10 * time.Second
	}
	return b.Max
}

// backoffFactor is the delay's growth per attempt; backoffJitter spreads
// each delay uniformly over ±backoffJitter×delay.
const (
	backoffFactor = 2
	backoffJitter = 0.2
)

// Delay returns the pre-jitter delay of the given 0-based attempt:
// exponential growth from Base, capped at Max.
func (b Backoff) Delay(attempt int) time.Duration {
	d := float64(b.base())
	max := float64(b.max())
	for i := 0; i < attempt; i++ {
		d *= backoffFactor
		if d >= max {
			return time.Duration(max)
		}
	}
	if d > max {
		d = max
	}
	return time.Duration(d)
}

// JitteredDelay is Delay spread over [d×(1−backoffJitter),
// d×(1+backoffJitter)].
func (b Backoff) JitteredDelay(attempt int) time.Duration {
	d := float64(b.Delay(attempt))
	r := rand.Float64
	if b.Rand != nil {
		r = b.Rand
	}
	lo := d * (1 - backoffJitter)
	return time.Duration(lo + r()*(d*(1+backoffJitter)-lo))
}

// Wait sleeps for the given attempt's jittered delay, aborting early (with
// ctx.Err()) when the context is cancelled mid-sleep.
func (b Backoff) Wait(ctx context.Context, attempt int) error {
	sleep := b.Sleep
	if sleep == nil {
		sleep = sleepContext
	}
	return sleep(ctx, b.JitteredDelay(attempt))
}

// Retry runs f until it returns nil, a Permanent error, the context is
// cancelled (including mid-sleep), or attempts calls have failed
// (attempts <= 0 retries without limit). The last error is returned,
// wrapped together with ctx.Err() when cancellation cut the retry short.
func (b Backoff) Retry(ctx context.Context, attempts int, f func() error) error {
	for attempt := 0; ; attempt++ {
		err := f()
		if err == nil {
			return nil
		}
		var perm *permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
		if attempts > 0 && attempt+1 >= attempts {
			return err
		}
		if b.OnRetry != nil {
			b.OnRetry(attempt, err)
		}
		if werr := b.Wait(ctx, attempt); werr != nil {
			return errors.Join(werr, err)
		}
	}
}

// permanentError marks an error Retry must not retry.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps an error so Backoff.Retry returns it immediately instead
// of retrying — the marker for application-level rejections (a fencing 409)
// as opposed to transient transport failures.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// sleepContext is the production Sleep: a timer that aborts on cancellation.
func sleepContext(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
