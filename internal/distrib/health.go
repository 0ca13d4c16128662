package distrib

import (
	"sync"
	"time"
)

// Health scoring for transports that quarantine flaky workers.
const (
	// quarantineAfter is how many CONSECUTIVE failures a worker
	// accumulates before it is benched. One failure is routine (a
	// retried shard lands elsewhere); a streak means the worker itself —
	// not the shard — is the problem.
	quarantineAfter = 3
	// quarantineCooldown is how long a benched worker sits out before
	// dials may route to it again. Long enough to ride out a restart,
	// short enough that a recovered worker rejoins the same run.
	quarantineCooldown = 30 * time.Second
)

// healthBoard scores workers by outcome and quarantines repeat
// offenders: a worker whose consecutive-failure streak reaches
// quarantineAfter is skipped by Dial for quarantineCooldown. One success
// wipes the streak — the score is about *current* behavior, not history.
//
// The board is keyed by opaque worker IDs (the TCP transport uses the
// address); the coordinator reports outcomes through the transport's
// ReportWorker method after every shard attempt.
type healthBoard struct {
	mu      sync.Mutex
	now     func() time.Time // injectable clock for deterministic tests
	workers map[string]*workerHealth
}

type workerHealth struct {
	streak     int       // consecutive failures
	benchUntil time.Time // zero when not quarantined
}

func newHealthBoard(now func() time.Time) *healthBoard {
	return &healthBoard{now: now, workers: make(map[string]*workerHealth)}
}

// report records one shard attempt's outcome for the worker.
func (b *healthBoard) report(id string, ok bool) {
	if id == "" {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.workers[id]
	if w == nil {
		w = &workerHealth{}
		b.workers[id] = w
	}
	if ok {
		w.streak = 0
		w.benchUntil = time.Time{}
		return
	}
	w.streak++
	if w.streak >= quarantineAfter {
		if w.streak == quarantineAfter {
			// Counted once per quarantine event, not per failure while
			// benched.
			mQuarantines.Inc()
			logger.Warn("worker quarantined", "worker", id, "streak", w.streak, "cooldown", quarantineCooldown)
		}
		w.benchUntil = b.now().Add(quarantineCooldown)
	}
}

// quarantined reports whether the worker is currently benched. A bench
// whose cooldown has expired is cleared (the streak survives: one more
// failure re-benches immediately, one success forgives everything).
func (b *healthBoard) quarantined(id string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	w := b.workers[id]
	if w == nil || w.benchUntil.IsZero() {
		return false
	}
	if b.now().Before(w.benchUntil) {
		return true
	}
	w.benchUntil = time.Time{}
	return false
}
