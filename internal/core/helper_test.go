package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/datagen"
)

// settledGoroutines waits up to a second for the goroutine count to
// fall back to want — a goroutine that closed its exit channel may
// take a moment more to leave the count — and returns the last count.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// panickingStrategy panics on its second query round, by then with
// Train's helper running.
type panickingStrategy struct {
	active.Strategy
	rounds *int
}

func (s panickingStrategy) Select(st *active.State, k int, rng *rand.Rand) []int {
	if *s.rounds++; *s.rounds == 2 {
		panic("strategy failed")
	}
	return s.Strategy.Select(st, k, rng)
}

// TestTrainLeavesNoGoroutine: whether Train returns a result, returns an
// error or unwinds a strategy's panic, no goroutine it started is left
// running. The pool spans more than two row blocks at GOMAXPROCS 2, so
// each path that gets as far as the loop runs with the helper.
func TestTrainLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	p, oracle := defaultShapedProblem()
	p.Oracle = oracle
	conflict := active.Conflict{CloseTol: 0.05}
	for _, c := range []struct {
		name string
		run  func() error
	}{
		{"success", func() error {
			_, err := Train(p, Config{Budget: 100, Strategy: conflict, Seed: 1})
			return err
		}},
		{"no-budget", func() error {
			_, err := Train(p, Config{Seed: 1})
			return err
		}},
		{"error", func() error {
			q := p
			q.Prelabeled, q.PrelabeledY = []int{len(p.Links)}, []float64{1}
			if _, err := Train(q, Config{Budget: 100, Strategy: conflict, Seed: 1}); err == nil {
				return fmt.Errorf("an out-of-range prelabel trained")
			}
			return nil
		}},
		{"strategy-panic", func() (err error) {
			defer func() {
				if r := recover(); r != "strategy failed" {
					err = fmt.Errorf("recovered %v, want the strategy's panic", r)
				}
			}()
			rounds := 0
			_, _ = Train(p, Config{Budget: 100, Strategy: panickingStrategy{conflict, &rounds}, Seed: 1})
			return nil
		}},
	} {
		// A subtest runs beside this test's goroutine, blocked in t.Run;
		// the previous subtest's goroutine may still be on its way out.
		time.Sleep(10 * time.Millisecond)
		leaf := runtime.NumGoroutine() + 1
		t.Run(c.name, func(t *testing.T) {
			if n := settledGoroutines(leaf); n != leaf {
				t.Fatalf("%d goroutines before Train, want %d", n, leaf)
			}
			if err := c.run(); err != nil {
				t.Fatal(err)
			}
			if n := settledGoroutines(leaf); n != leaf {
				t.Fatalf("%d goroutines after Train, %d before", n, leaf)
			}
		})
	}
}

// TestConcurrentTrainsMatchSerial runs many Trains at once over one
// shared problem, each with its own helper, and requires every one to
// report the run a lone Train at GOMAXPROCS 1 reports. Run it with -race.
func TestConcurrentTrainsMatchSerial(t *testing.T) {
	p, oracle := defaultShapedProblem()
	p.Oracle = oracle
	cfg := Config{Budget: 100, BatchSize: 5, Strategy: active.Conflict{CloseTol: 0.05}, Seed: 4}
	prev := runtime.GOMAXPROCS(1)
	want, err := Train(p, cfg)
	runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	if err != nil {
		t.Fatal(err)
	}
	wantQueried := make(map[int]bool)
	for idx := range p.Links {
		if want.QueriedAt(idx) {
			wantQueried[idx] = true
		}
	}
	const trains = 8
	got := make([]*Result, trains)
	errs := make([]error, trains)
	var wg sync.WaitGroup
	for k := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[k], errs[k] = Train(p, cfg)
		}()
	}
	wg.Wait()
	for k := range got {
		if errs[k] != nil {
			t.Fatal(errs[k])
		}
		requireSameRun(t, p, got[k], want, wantQueried)
	}
}

// TestResultIndexConcurrentReaders: the link index is built by the first
// LabelOf or WasQueried, whichever goroutine calls it, and every caller
// gets the pool's answer. Run it with -race.
func TestResultIndexConcurrentReaders(t *testing.T) {
	p, oracle := foldProblem(t, datagen.Tiny(), true)
	p.Oracle = oracle
	res, err := Train(p, Config{Budget: 20, Strategy: active.Uncertainty{}, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx, l := range p.Links {
				y, ok := res.LabelOf(l.I, l.J)
				if !ok || y != res.Y[idx] || res.WasQueried(l.I, l.J) != res.QueriedAt(idx) {
					errs <- fmt.Errorf("link %d (%d,%d): LabelOf %v %v, WasQueried %v; want %v, %v", idx, l.I, l.J, y, ok, res.WasQueried(l.I, l.J), res.Y[idx], res.QueriedAt(idx))
					return
				}
			}
			if _, ok := res.LabelOf(-1, -1); ok || res.WasQueried(-1, -1) {
				errs <- fmt.Errorf("a link outside the pool was found")
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
