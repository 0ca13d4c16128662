package partition

import (
	"reflect"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/active"
	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/telemetry"
)

// TestSeededPartsAreThePlansParts: what Seed hands an executor before
// the assignment exists is exactly what the assigned plan's parts train
// on, and one Seeded assigns any number of times to the same plan.
func TestSeededPartsAreThePlansParts(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	pl, err := NewPlanner(newBase(t, pair))
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 3} {
		seeded, err := pl.Seed(trainPos, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if len(seeded.Parts) != k {
			t.Fatalf("K=%d: seeded %d parts", k, len(seeded.Parts))
		}
		first, err := seeded.Assign(candidates, 9)
		if err != nil {
			t.Fatal(err)
		}
		for p, part := range first.Parts {
			if sp := seeded.Parts[p]; sp.Index != part.Index || !reflect.DeepEqual(sp.TrainPos, part.TrainPos) {
				t.Errorf("K=%d part %d: seeded on %d/%v, planned %d/%v", k, p, sp.Index, sp.TrainPos, part.Index, part.TrainPos)
			}
			if sp := seeded.Parts[p]; sp.Candidates != nil || sp.Budget != 0 {
				t.Errorf("K=%d part %d: Assign wrote into the seeded part", k, p)
			}
		}
		again, err := seeded.Assign(candidates, 9)
		if err != nil {
			t.Fatal(err)
		}
		whole, err := pl.Plan(trainPos, candidates, 9, Config{K: k})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(first, again) || !reflect.DeepEqual(first, whole) {
			t.Errorf("K=%d: Seed+Assign, a second Assign and Plan disagree", k)
		}
		if _, err := seeded.Assign(candidates, -1); err == nil {
			t.Errorf("K=%d: Assign accepted a negative budget", k)
		}
	}
}

// TestRoundsRecountOnce: Finish fills a part's feature matrix the first
// time and lets its fork go, so the rounds that follow only retrain —
// the process-wide evaluation counter (the sum of every counter's
// Stats().Evaluations) stands still after round 1 — and they see the
// labels and budgets of their own round.
func TestRoundsRecountOnce(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	base := newBase(t, pair)
	plan, err := buildPlan(base, trainPos, candidates, 12, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	opts := TrainOptions{Features: schema.StandardLibrary().All(), Core: core.Config{Seed: 7, Strategy: active.Conflict{}}}
	oracle := active.NewTruthOracle(pair)
	evaluations := telemetry.Default.Counter("activeiter_metadiag_cache_misses_total", "")

	begun, err := Begin(base, plan.Parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer begun.Release()
	const rounds = 3
	var afterFirst int64
	spent := 0
	for r := 0; r < rounds; r++ {
		plan.Rebudget(RoundBudget(12, rounds, r))
		cfg := opts.Core
		cfg.Seed = RoundSeed(cfg.Seed, r)
		res, err := begun.Finish(plan, cfg, oracle)
		if err != nil {
			t.Fatalf("round %d: %v", r, err)
		}
		spent += res.QueryCount()
		if r == 0 {
			afterFirst = evaluations.Value()
			for p := range begun.parts {
				if begun.parts[p].ext != nil || begun.parts[p].prep == nil {
					t.Fatalf("part %d: fork not released for its filled matrix after round 1", p)
				}
			}
		}
		plan.AppendLabels(res.QueriedLabels())
	}
	if got := evaluations.Value(); got != afterFirst {
		t.Errorf("rounds 2…%d evaluated %d more counts; they should only retrain", rounds, got-afterFirst)
	}
	if spent != 12 {
		t.Errorf("%d rounds spent %d queries, want the whole budget 12", rounds, spent)
	}
}

// TestBegunPreparedIsWhatFinishTrains: a part's Prepared, read before
// any Finish, is the pool and matrix PreparePart builds on a fork
// restricted to the part's anchors; Finish then trains on that very
// Prepared without counting again, and the run equals Align's.
func TestBegunPreparedIsWhatFinishTrains(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	base := newBase(t, pair)
	plan, err := buildPlan(base, trainPos, candidates, 6, Config{K: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := TrainOptions{Features: schema.StandardLibrary().All(), Core: core.Config{Seed: 7, Strategy: active.Conflict{}}, Workers: 1}
	oracle := active.NewTruthOracle(pair)
	want, err := Align(base, plan, opts, oracle)
	if err != nil {
		t.Fatal(err)
	}

	begun, err := Begin(base, plan.Parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer begun.Release()
	got, err := begun.Prepared(0, &plan.Parts[0])
	if err != nil {
		t.Fatal(err)
	}
	fork := base.Fork()
	fork.SetAnchors(plan.Parts[0].TrainPos)
	ref, err := PreparePart(fork, &plan.Parts[0], opts.Features)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Links, ref.Links) || !reflect.DeepEqual(got.X(), ref.X()) {
		t.Fatal("Begun.Prepared differs from PreparePart on the part's fork")
	}
	res, err := begun.Finish(plan, opts.Core, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if begun.parts[0].prep != got {
		t.Error("Finish refilled the part instead of training on its Prepared")
	}
	if !reflect.DeepEqual(res.PredictedAnchors(), want.PredictedAnchors()) || res.QueryCount() != want.QueryCount() {
		t.Error("Prepared then Finish diverges from Align")
	}
	other := plan.Parts[0]
	other.TrainPos = other.TrainPos[1:]
	if _, err := begun.Prepared(0, &other); err == nil {
		t.Error("Prepared accepted a part with other training anchors")
	}
}

// TestBegunContract: Begin and Finish refuse what Align refused, a
// released pipeline fails its Finish, and Release may be called at any
// point, twice.
func TestBegunContract(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	base := newBase(t, pair)
	opts := TrainOptions{Features: schema.StandardLibrary().All(), Core: core.Config{Seed: 7}, Workers: 1}
	plan, err := buildPlan(base, trainPos, candidates, 0, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Begin(nil, plan.Parts, opts); err == nil {
		t.Error("Begin accepted a nil base counter")
	}
	if _, err := Begin(base, nil, opts); err == nil {
		t.Error("Begin accepted no parts")
	}
	if _, err := Align(base, nil, opts, nil); err == nil {
		t.Error("Align accepted a nil plan")
	}
	begun, err := Begin(base, plan.Parts, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := begun.Finish(&Plan{Parts: plan.Parts[:2]}, opts.Core, nil); err == nil {
		t.Error("Finish accepted a plan with fewer parts than were begun")
	}
	// One worker, three parts: some of them have not started counting.
	begun.Release()
	begun.Release()
	if _, err := begun.Finish(plan, opts.Core, nil); err == nil || !strings.Contains(err.Error(), "released") {
		t.Errorf("Finish after Release: %v, want the release named", err)
	}
}
