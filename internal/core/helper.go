package core

import (
	"runtime"
	"sync/atomic"
	"time"
)

// blockRows is the row block of a training step. It is a constant, not a
// share of the cores, so the blocks — and every output, which is written
// to per-block slots — are the same at any GOMAXPROCS and under any
// schedule.
const blockRows = 2048

// helperSpin is how long the helper yields between steps before it
// parks. It covers the gap between two steps inside an external round
// (tens of µs) and a query round (hundreds), so within a Train the
// helper is woken from a park about once: an idle core that halted
// costs more to wake than a block takes to score.
const helperSpin = 500 * time.Microsecond

// step is one parallel-for over blocks: each block is claimed once,
// through next, by whichever goroutine gets there first.
type step struct {
	n          int32
	next, done atomic.Int32
	run        func(block int)
}

// work claims and runs blocks until none is left unclaimed.
func (s *step) work() {
	for b := s.next.Add(1) - 1; b < s.n; b = s.next.Add(1) - 1 {
		s.run(int(b))
		s.done.Add(1)
	}
}

// stopStep, published as the current step, tells the helper to exit.
var stopStep = &step{}

// helper is Train's one extra goroutine. The caller publishes a step and
// claims blocks from it alongside the helper; it never waits for a block
// nobody claimed, only for the ones the helper is running. Between steps
// the helper yields for helperSpin, then parks until the next step.
// A nil *helper runs every block on the caller.
type helper struct {
	cur    atomic.Pointer[step]
	parked atomic.Bool
	wake   chan struct{} // one token per park the caller ended
	exited chan struct{}
}

// startHelper starts the helper when steps over the given number of
// blocks have a second core to use: GOMAXPROCS above 1 and more than two
// blocks. A smaller pool's steps run on the caller — a yielding helper
// does not give its core to other processes, which a sharded run's
// parts need.
func startHelper(blocks int) *helper {
	if runtime.GOMAXPROCS(0) < 2 || blocks <= 2 {
		return nil
	}
	h := &helper{wake: make(chan struct{}, 1), exited: make(chan struct{})}
	go h.loop()
	return h
}

func (h *helper) loop() {
	defer close(h.exited)
	var last *step
	idle := time.Now()
	for {
		if s := h.cur.Load(); s != last {
			if s == stopStep {
				return
			}
			last = s
			s.work()
			idle = time.Now()
			continue
		}
		if time.Since(idle) < helperSpin {
			runtime.Gosched()
			continue
		}
		h.parked.Store(true)
		if h.cur.Load() != last && h.parked.CompareAndSwap(true, false) {
			continue // a step arrived before the caller saw the park
		}
		<-h.wake
		idle = time.Now()
	}
}

// publish makes s the current step and wakes a parked helper.
func (h *helper) publish(s *step) {
	h.cur.Store(s)
	if h.parked.CompareAndSwap(true, false) {
		h.wake <- struct{}{}
	}
}

// do runs run(0), …, run(n-1), each once, and returns when all are done.
func (h *helper) do(n int, run func(block int)) {
	if h == nil {
		for b := 0; b < n; b++ {
			run(b)
		}
		return
	}
	s := &step{n: int32(n), run: run}
	h.publish(s)
	s.work()
	for s.done.Load() < s.n {
		runtime.Gosched()
	}
}

// stop ends the helper and waits for it to exit. It is safe on nil.
func (h *helper) stop() {
	if h == nil {
		return
	}
	h.publish(stopStep)
	<-h.exited
}
