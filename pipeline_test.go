package activeiter

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/partition"
	"github.com/activeiter/activeiter/internal/schema"
)

// Property tests for the in-process pipeline: the facade warms, seeds,
// begins, assigns and finishes in overlapping steps, and none of the
// overlap may show in what it returns.

// TestEarlyStartEqualsPlanThenAlign: the facade's overlapped run returns
// what PlanCached → partition.Align run in sequence returns — every
// link's merged vote, the per-shard models, the oracle spend and the
// anchors — across part counts, round counts and budgets. CI runs it
// under -race: the warm, the planner and the parts share one counter.
func TestEarlyStartEqualsPlanThenAlign(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)
	for _, k := range []int{1, 2, 4} {
		for _, rounds := range []int{1, 3} {
			for _, budget := range []int{0, 100} {
				t.Run(fmt.Sprintf("K=%d/rounds=%d/budget=%d", k, rounds, budget), func(t *testing.T) {
					opts := Options{Budget: budget, Seed: 5, Partitions: k, Rounds: rounds}
					_, got := alignOn(t, opts, nil)
					sameSharded(t, "partitioned", got, planThenAlign(t, pair, opts, trainPos, candidates, NewTruthOracle(pair)))
				})
			}
		}
	}
}

// settleGoroutines fails the test unless the goroutine count is back to
// at most before — right away for a well-behaved caller; the short wait
// only absorbs runtime bookkeeping.
func settleGoroutines(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines left behind (was %d)", runtime.NumGoroutine()-before, before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipelineFailuresLeaveNothingRunning: an error on either side of
// the overlap — a part that cannot count a feature, a plan that cannot
// be assigned once the parts have begun — is Align's error, named as
// before, and no warm, count or train goroutine outlives the call.
func TestPipelineFailuresLeaveNothingRunning(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)

	t.Run("uncountable feature", func(t *testing.T) {
		pa, err := NewPartitioned(pair, Options{Partitions: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		ghost := schema.Fwd("ghost", schema.User1(), schema.User1())
		pa.train.Features = append(append([]schema.Named{}, pa.train.Features...), schema.Named{ID: "GHOST", D: ghost})
		before := runtime.NumGoroutine()
		_, err = pa.Align(trainPos, candidates, nil)
		if err == nil || !strings.HasPrefix(err.Error(), "partition 0: ") || !strings.Contains(err.Error(), "GHOST") {
			t.Fatalf("Align error = %v, want partition 0's GHOST feature", err)
		}
		settleGoroutines(t, before)
	})

	t.Run("planning error after begin", func(t *testing.T) {
		pa, err := NewPartitioned(pair, Options{Partitions: 3, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pa.opts.Budget = -1 // past the constructor's validation: Assign is what refuses it
		before := runtime.NumGoroutine()
		_, err = pa.Align(trainPos, candidates, nil)
		if err == nil || !strings.Contains(err.Error(), "negative budget") {
			t.Fatalf("Align error = %v, want the planner's negative budget", err)
		}
		settleGoroutines(t, before)
		// The aligner is still good for a run that can be planned.
		pa.opts.Budget = 0
		if _, err := pa.Align(trainPos, candidates, nil); err != nil {
			t.Fatalf("Align after a failed one: %v", err)
		}
	})
}

// TestPartReportElapsedIsBusyTime: a part's Elapsed is its own count,
// fill and train time. Planning sits between a part's count and its fill
// and is not in it: stretch the planner and the reports do not follow.
func TestPartReportElapsedIsBusyTime(t *testing.T) {
	pair, trainPos, testPos, neg := testFixture(t)
	candidates := append(append([]Anchor{}, testPos...), neg...)
	train, err := Options{Seed: 1}.resolve()
	if err != nil {
		t.Fatal(err)
	}
	base, err := metadiag.NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	var planner *partition.Planner
	seeded, err := partition.SeedCached(base, &planner, trainPos, partition.Config{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	begun, err := partition.Begin(base, seeded.Parts, train)
	if err != nil {
		t.Fatal(err)
	}
	const planning = 200 * time.Millisecond
	time.Sleep(planning) // a planner that takes its time
	plan, err := seeded.Assign(candidates, 0)
	if err != nil {
		t.Fatal(err)
	}
	res, err := begun.Finish(plan, train.Core, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Elapsed < planning {
		t.Errorf("Result.Elapsed %v does not span the %v between Begin and Finish", res.Elapsed, planning)
	}
	for _, rep := range res.Reports {
		if rep.Elapsed <= 0 || rep.Elapsed >= planning {
			t.Errorf("part %d Elapsed %v: want its busy time, well under the %v it waited for the plan", rep.Index, rep.Elapsed, planning)
		}
	}
	// TrainPos are what Begin counted on: a plan over other anchors is
	// refused, not trained on the wrong counts.
	other := *plan
	other.Parts = append([]partition.Part(nil), plan.Parts...)
	other.Parts[0].TrainPos = []hetnet.Anchor{other.Parts[1].TrainPos[0]}
	if _, err := begun.Finish(&other, train.Core, nil); err == nil {
		t.Error("Finish accepted a plan whose part trains on other anchors than it was begun on")
	}
}
