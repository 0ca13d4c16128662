// Package retry holds the one retry policy the training fabric (distrib
// sessions) and the serving fabric (fleet router) share: how many tries
// an operation gets, how long one try may take, and how long to wait
// between tries.
package retry

import (
	"cmp"
	"fmt"
	"time"
)

// DefaultAttempts is the try budget of a zero Policy.
const DefaultAttempts = 3

// Policy is a fabric's retry policy.
type Policy struct {
	// Attempts is the try budget per operation, the first try included.
	// Zero means DefaultAttempts.
	Attempts int
	// Timeout bounds one try. Zero means the fabric's own default.
	Timeout time.Duration
}

// Resolve fills the zero fields of p — Attempts with DefaultAttempts,
// Timeout with the caller's timeout — and rejects negative ones.
func (p Policy) Resolve(timeout time.Duration) (Policy, error) {
	if p.Attempts < 0 || p.Timeout < 0 {
		return p, fmt.Errorf("retry: negative policy %+v", p)
	}
	p.Attempts = cmp.Or(p.Attempts, DefaultAttempts)
	p.Timeout = cmp.Or(p.Timeout, timeout)
	return p, nil
}

// Delay is the wait before retry n (n ≥ 1) of the operation named by
// key: 10 ms doubling to a 1 s cap (also once the shift overflows),
// scaled by 0.5+u for a u in [0, 1) hashed from key and n — so it lands
// in [0.5·d, 1.5·d) of the unjittered d. Equal keys wait equally, so a
// seeded run replays its delays, and callers hold no RNG.
func Delay(n int, key uint64) time.Duration {
	d := 10 * time.Millisecond << uint(n-1)
	if d > time.Second || d <= 0 {
		d = time.Second
	}
	u := float64(SplitMix64(key^SplitMix64(uint64(n)))>>11) / (1 << 53)
	return time.Duration(float64(d) * (0.5 + u))
}

// SplitMix64 is a full-avalanche permutation of 64-bit values: nearby
// inputs (consecutive keys, attempt numbers, dial ordinals) map to
// uncorrelated outputs.
func SplitMix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}
