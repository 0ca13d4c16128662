package retry

import (
	"testing"
	"time"
)

func TestBackoffBounds(t *testing.T) {
	const base, cap = 10 * time.Millisecond, time.Second
	cases := []struct {
		name string
		n    int
		d    time.Duration // the unjittered delay
	}{
		{"first retry", 1, base},
		{"last below the cap", 7, 640 * time.Millisecond},
		{"first to hit the cap", 8, cap}, // 1.28s > 1s
		{"shift overflows to zero", 70, cap},
		{"shift overflows negative", 41, cap}, // 10ms<<40 wraps past MaxInt64
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, u := range []float64{0, 0.25, 0.5, 0.999999} {
				got := Backoff(base, cap, tc.n, u)
				lo, hi := tc.d/2, tc.d+tc.d/2
				if got < lo || got >= hi {
					t.Errorf("n=%d u=%v: %v outside [%v, %v)", tc.n, u, got, lo, hi)
				}
			}
			if got := Backoff(base, cap, tc.n, 0.5); got != tc.d {
				t.Errorf("n=%d u=0.5: %v, want the unjittered %v", tc.n, got, tc.d)
			}
		})
	}
}
