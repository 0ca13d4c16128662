package partition

import (
	"testing"

	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
)

// TestAppendLabelsRoutesDedupsAndSorts: a label lands in every part
// whose pool contains it, in canonical order, exactly once — training
// anchors and already-appended labels are skipped, and re-appending a
// batch is a no-op.
func TestAppendLabelsRoutesDedupsAndSorts(t *testing.T) {
	plan := &Plan{Parts: []Part{
		{
			Index:      0,
			TrainPos:   []hetnet.Anchor{{I: 0, J: 0}},
			Candidates: []hetnet.Anchor{{I: 5, J: 5}, {I: 3, J: 4}, {I: 9, J: 9}},
		},
		{
			Index:      1,
			TrainPos:   []hetnet.Anchor{{I: 1, J: 1}},
			Candidates: []hetnet.Anchor{{I: 9, J: 9}, {I: 7, J: 7}},
		},
	}}
	labels := []LabeledLink{
		{Link: hetnet.Anchor{I: 9, J: 9}, Label: 1},   // both pools
		{Link: hetnet.Anchor{I: 3, J: 4}, Label: 0},   // part 0 only
		{Link: hetnet.Anchor{I: 1, J: 1}, Label: 1},   // part 1's anchor: skipped there
		{Link: hetnet.Anchor{I: 42, J: 42}, Label: 1}, // nobody's pool
	}
	if got := plan.AppendLabels(labels); got != 3 {
		t.Fatalf("assigned %d labels, want 3", got)
	}
	p0 := plan.Parts[0].Prelabeled
	if len(p0) != 2 || p0[0].Link != (hetnet.Anchor{I: 3, J: 4}) || p0[1].Link != (hetnet.Anchor{I: 9, J: 9}) {
		t.Fatalf("part 0 prelabels wrong (want canonical order): %+v", p0)
	}
	p1 := plan.Parts[1].Prelabeled
	if len(p1) != 1 || p1[0].Link != (hetnet.Anchor{I: 9, J: 9}) {
		t.Fatalf("part 1 prelabels wrong: %+v", p1)
	}
	// Idempotence: the same batch again assigns nothing.
	if got := plan.AppendLabels(labels); got != 0 {
		t.Fatalf("re-append assigned %d labels, want 0", got)
	}
	// A later batch appends AFTER the earlier one — the suffix a
	// delta-shipping coordinator relies on.
	more := []LabeledLink{{Link: hetnet.Anchor{I: 5, J: 5}, Label: 0}}
	if got := plan.AppendLabels(more); got != 1 {
		t.Fatalf("second batch assigned %d, want 1", got)
	}
	p0 = plan.Parts[0].Prelabeled
	if len(p0) != 3 || p0[2].Link != (hetnet.Anchor{I: 5, J: 5}) {
		t.Fatalf("second batch did not append as a suffix: %+v", p0)
	}
}

// TestRebudgetResplits: Rebudget reassigns a new total proportionally in
// place without touching anything else.
func TestRebudgetResplits(t *testing.T) {
	plan := &Plan{Parts: []Part{
		{Index: 0, Candidates: make([]hetnet.Anchor, 30), Budget: 99},
		{Index: 1, Candidates: make([]hetnet.Anchor, 10), Budget: 99},
	}}
	plan.Rebudget(8)
	if plan.Parts[0].Budget+plan.Parts[1].Budget != 8 {
		t.Fatalf("budgets sum to %d, want 8", plan.Parts[0].Budget+plan.Parts[1].Budget)
	}
	if plan.Parts[0].Budget <= plan.Parts[1].Budget {
		t.Errorf("larger shard got budget %d ≤ smaller's %d", plan.Parts[0].Budget, plan.Parts[1].Budget)
	}
	plan.Rebudget(0)
	if plan.Parts[0].Budget != 0 || plan.Parts[1].Budget != 0 {
		t.Errorf("zero rebudget left budgets %d/%d", plan.Parts[0].Budget, plan.Parts[1].Budget)
	}
}

// TestShardRemapLabels: labels are forward-mapped into an extracted
// shard's index space, with an error for endpoints extraction dropped.
func TestShardRemapLabels(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	part := &Part{Index: 0, TrainPos: trainPos, Candidates: candidates[:4]}
	in := []LabeledLink{{Link: candidates[0], Label: 1}}

	ex, err := ExtractShard(pair, part)
	if err != nil {
		t.Fatal(err)
	}
	out, err := ex.RemapLabels(in)
	if err != nil {
		t.Fatal(err)
	}
	// The remapped label must point at the same user IDs in the
	// sub-networks.
	if ex.InvUsers1[out[0].Link.I] != int32(in[0].Link.I) || ex.InvUsers2[out[0].Link.J] != int32(in[0].Link.J) {
		t.Fatalf("remapped label (%d,%d) does not invert to (%d,%d)",
			out[0].Link.I, out[0].Link.J, in[0].Link.I, in[0].Link.J)
	}
	if len(ex.InvUsers1) < pair.G1.NodeCount(hetnet.User) {
		// Extraction dropped some users; a label on a dropped endpoint
		// must refuse rather than mistranslate.
		dropped := -1
		seen := make(map[int32]bool)
		for _, o := range ex.InvUsers1 {
			seen[o] = true
		}
		for u := 0; u < pair.G1.NodeCount(hetnet.User); u++ {
			if !seen[int32(u)] {
				dropped = u
				break
			}
		}
		if dropped >= 0 {
			if _, err := ex.RemapLabels([]LabeledLink{{Link: hetnet.Anchor{I: dropped, J: in[0].Link.J}}}); err == nil {
				t.Error("label on an extraction-dropped endpoint remapped without error")
			}
		}
	}
}

// trainPart runs both halves of one part's pipeline on a counter already
// restricted to the part's training anchors.
func trainPart(counter *metadiag.Counter, part *Part, opts TrainOptions) ([]hetnet.Anchor, *core.Result, error) {
	prep, err := PreparePart(counter, part, opts.Features)
	if err != nil {
		return nil, nil, err
	}
	res, err := prep.Train(part, opts.Core, nil)
	return prep.Links, res, err
}

// TestTrainPartPrelabeled: prelabels train as fixed queried labels — the
// result reports them queried without spending budget — and a prelabel
// outside the pool is an error, not a silent drop.
func TestTrainPartPrelabeled(t *testing.T) {
	pair, trainPos, candidates := fixture(t)
	base := newBase(t, pair)
	counter := base.Fork()
	counter.SetAnchors(trainPos)

	pre := LabeledLink{Link: candidates[0], Label: 1}
	part := &Part{
		Index: 0, TrainPos: trainPos, Candidates: candidates,
		Prelabeled: []LabeledLink{pre},
	}
	links, res, err := trainPart(counter, part, TrainOptions{
		Features: schema.StandardLibrary().All(),
		Core:     core.Config{Seed: 7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.WasQueried(pre.Link.I, pre.Link.J) {
		t.Error("prelabel not reported as queried")
	}
	if res.QueryCount() != 0 {
		t.Errorf("prelabels consumed %d budget queries", res.QueryCount())
	}
	if lab, ok := res.LabelOf(pre.Link.I, pre.Link.J); !ok || lab != 1 {
		t.Errorf("prelabel label = %v/%v, want fixed 1", lab, ok)
	}
	votes := PartVotes(part, links, res)
	found := false
	for _, v := range votes {
		if v.Link == pre.Link {
			found = true
			if !v.Queried || v.Label != 1 {
				t.Errorf("prelabel vote = %+v, want queried positive", v)
			}
		}
	}
	if !found {
		t.Error("prelabel missing from the vote stream")
	}

	bad := &Part{
		Index: 0, TrainPos: trainPos, Candidates: candidates,
		Prelabeled: []LabeledLink{{Link: hetnet.Anchor{I: 10_000, J: 10_000}, Label: 1}},
	}
	if _, _, err := trainPart(counter, bad, TrainOptions{
		Features: schema.StandardLibrary().All(),
		Core:     core.Config{Seed: 7},
	}); err == nil {
		t.Error("prelabel outside the pool accepted")
	}
}
