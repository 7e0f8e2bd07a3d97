package fleet

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

func TestBackoffDelayGrowsAndCaps(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: 2 * time.Second}
	want := []time.Duration{
		100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond,
		800 * time.Millisecond, 1600 * time.Millisecond, 2 * time.Second,
		2 * time.Second, 2 * time.Second,
	}
	for i, w := range want {
		if got := b.Delay(i); got != w {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w)
		}
	}
	// A huge attempt count must not overflow into nonsense.
	if got := b.Delay(10_000); got != 2*time.Second {
		t.Errorf("Delay(10000) = %v, want the cap", got)
	}
}

func TestBackoffJitterBounded(t *testing.T) {
	// With Rand pinned to the extremes, the jittered delay must land exactly
	// on the bounds [d(1-J), d(1+J)] — and never outside for anything between.
	base := 1 * time.Second
	for _, tc := range []struct {
		rand float64
		want time.Duration
	}{
		{0, 800 * time.Millisecond},
		{0.5, 1 * time.Second},
		{0.999999, time.Duration(0.8*float64(time.Second) + 0.999999*0.4*float64(time.Second))},
	} {
		b := Backoff{Base: base, Rand: func() float64 { return tc.rand }}
		got := b.JitteredDelay(0)
		if d := got - tc.want; d < -time.Microsecond || d > time.Microsecond {
			t.Errorf("JitteredDelay(rand=%v) = %v, want %v", tc.rand, got, tc.want)
		}
		lo, hi := 800*time.Millisecond, 1200*time.Millisecond
		if got < lo || got > hi {
			t.Errorf("JitteredDelay(rand=%v) = %v outside [%v, %v]", tc.rand, got, lo, hi)
		}
	}
}

func TestBackoffRetryDeterministic(t *testing.T) {
	// Injected Rand and Sleep make the whole retry schedule observable
	// without a single real timer.
	var slept []time.Duration
	b := Backoff{
		Base:  10 * time.Millisecond,
		Rand:  func() float64 { return 0.5 }, // midpoint: jitter is identity
		Sleep: func(_ context.Context, d time.Duration) error { slept = append(slept, d); return nil },
	}
	calls := 0
	err := b.Retry(context.Background(), 4, func() error { calls++; return fmt.Errorf("nope %d", calls) })
	if err == nil || err.Error() != "nope 4" {
		t.Fatalf("err = %v, want the last failure", err)
	}
	if calls != 4 {
		t.Fatalf("f called %d times, want 4", calls)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 40 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestBackoffRetrySucceedsAndStops(t *testing.T) {
	calls := 0
	var retried []int
	b := Backoff{
		Sleep:   func(context.Context, time.Duration) error { return nil },
		OnRetry: func(attempt int, err error) { retried = append(retried, attempt) },
	}
	err := b.Retry(context.Background(), 0, func() error {
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Fatalf("err=%v calls=%d, want success on call 3", err, calls)
	}
	if len(retried) != 2 || retried[0] != 0 || retried[1] != 1 {
		t.Fatalf("OnRetry saw %v, want [0 1]", retried)
	}
}

func TestBackoffPermanentStopsImmediately(t *testing.T) {
	calls := 0
	sentinel := errors.New("fenced")
	b := Backoff{Sleep: func(context.Context, time.Duration) error {
		t.Fatal("slept after a permanent error")
		return nil
	}}
	err := b.Retry(context.Background(), 0, func() error { calls++; return Permanent(sentinel) })
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the unwrapped sentinel", err)
	}
	if calls != 1 {
		t.Fatalf("f called %d times after Permanent, want 1", calls)
	}
}

func TestBackoffCancellationAbortsMidSleep(t *testing.T) {
	// Real timer path: a retry sleeping for minutes must return promptly
	// when the context dies, reporting both the cancellation and the error
	// that was being retried.
	ctx, cancel := context.WithCancel(context.Background())
	go func() { time.Sleep(20 * time.Millisecond); cancel() }()
	b := Backoff{Base: time.Hour}
	start := time.Now()
	failure := errors.New("still down")
	err := b.Retry(ctx, 0, func() error { return failure })
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("retry took %v to notice cancellation", elapsed)
	}
	if !errors.Is(err, context.Canceled) || !errors.Is(err, failure) {
		t.Fatalf("err = %v, want both context.Canceled and the retried error", err)
	}
}
