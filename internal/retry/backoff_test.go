package retry

import (
	"testing"
	"time"
)

func TestDelayBounds(t *testing.T) {
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
			lo, hi := tc.d/2, tc.d+tc.d/2
			for key := uint64(0); key < 100; key++ {
				if got := Delay(tc.n, key); got < lo || got >= hi {
					t.Errorf("Delay(%d, %d) = %v outside [%v, %v)", tc.n, key, got, lo, hi)
				}
			}
		})
	}
}

func TestDelayIsKeyed(t *testing.T) {
	for _, n := range []int{1, 4, 9} {
		seen := map[time.Duration]bool{}
		for key := uint64(0); key < 100; key++ {
			d := Delay(n, key)
			if again := Delay(n, key); again != d {
				t.Fatalf("Delay(%d, %d) = %v, then %v", n, key, d, again)
			}
			seen[d] = true
		}
		if len(seen) < 90 {
			t.Errorf("retry %d: 100 keys give only %d distinct delays", n, len(seen))
		}
	}
}

func TestPolicyResolve(t *testing.T) {
	const fallback = 5 * time.Second
	cases := []struct {
		name    string
		in      Policy
		want    Policy
		wantErr bool
	}{
		{"zero takes the defaults", Policy{}, Policy{Attempts: DefaultAttempts, Timeout: fallback}, false},
		{"set fields stay", Policy{Attempts: 1, Timeout: time.Second}, Policy{Attempts: 1, Timeout: time.Second}, false},
		{"negative attempts", Policy{Attempts: -1}, Policy{}, true},
		{"negative timeout", Policy{Timeout: -time.Second}, Policy{}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.in.Resolve(fallback)
			if tc.wantErr {
				if err == nil {
					t.Fatalf("Resolve(%+v) accepted a negative field", tc.in)
				}
				return
			}
			if err != nil || got != tc.want {
				t.Fatalf("Resolve(%+v) = %+v, %v; want %+v", tc.in, got, err, tc.want)
			}
		})
	}
	if DefaultAttempts != 3 {
		t.Errorf("DefaultAttempts = %d, want 3", DefaultAttempts)
	}
}
