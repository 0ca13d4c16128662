// Package retry holds the one retry-delay policy the training fabric
// (distrib sessions) and the serving fabric (fleet router) share.
package retry

import "time"

// Backoff is the jittered, capped exponential delay before retry n
// (n ≥ 1): base×2ⁿ⁻¹, clamped to cap once it exceeds cap or the shift
// overflows, scaled by 0.5+u. Callers pass u uniform in [0, 1) from
// their own (seeded, lock-guarded) RNG, so delays land in
// [0.5·d, 1.5·d) and stay deterministic for a fixed seed.
func Backoff(base, cap time.Duration, n int, u float64) time.Duration {
	d := base << uint(n-1)
	if d > cap || d <= 0 {
		d = cap
	}
	return time.Duration(float64(d) * (0.5 + u))
}
