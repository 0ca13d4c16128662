package partition

import (
	"fmt"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/schema"
)

// shardPlan builds a K=3 plan over the tiny fixture — the shard set the
// extraction tests run against.
func shardPlan(t *testing.T) (*hetnet.AlignedPair, *metadiag.Counter, *Plan) {
	t.Helper()
	pair, trainPos, candidates := fixture(t)
	base := newBase(t, pair)
	plan, err := buildPlan(base, trainPos, candidates, 20, Config{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Parts) < 2 {
		t.Fatalf("fixture plan has %d parts, want ≥ 2", len(plan.Parts))
	}
	return pair, base, plan
}

// TestExtractShardPreservesFeatures is the extraction exactness
// property: for every pool link of every shard, the feature vector
// computed on the extracted sub-pair equals — bit for bit — the vector
// the in-process pipeline computes on the full pair. This is the
// invariant that makes distributed and in-process alignment identical.
func TestExtractShardPreservesFeatures(t *testing.T) {
	pair, base, plan := shardPlan(t)
	feats := schema.StandardLibrary().All()
	for p := range plan.Parts {
		part := &plan.Parts[p]
		shard, err := ExtractShard(pair, part)
		if err != nil {
			t.Fatalf("part %d: %v", p, err)
		}

		// Full-pair reference: fork of the base, anchors restricted.
		ref := base.Fork()
		ref.SetAnchors(part.TrainPos)
		refExt := metadiag.NewExtractor(ref, feats, true)
		if err := refExt.Recompute(); err != nil {
			t.Fatal(err)
		}
		// Extracted pipeline: fresh counter over the sub-pair.
		sub, err := metadiag.NewCounter(shard.Pair)
		if err != nil {
			t.Fatalf("part %d: counter on sub-pair: %v", p, err)
		}
		sub.SetAnchors(shard.Part.TrainPos)
		subExt := metadiag.NewExtractor(sub, feats, true)
		if err := subExt.Recompute(); err != nil {
			t.Fatalf("part %d: recompute on sub-pair: %v", p, err)
		}

		pool := append(append([]hetnet.Anchor{}, part.TrainPos...), part.Candidates...)
		subPool := append(append([]hetnet.Anchor{}, shard.Part.TrainPos...), shard.Part.Candidates...)
		want := make([]float64, refExt.Dim())
		got := make([]float64, subExt.Dim())
		for k := range pool {
			if err := refExt.FeatureVector(pool[k].I, pool[k].J, want); err != nil {
				t.Fatal(err)
			}
			if err := subExt.FeatureVector(subPool[k].I, subPool[k].J, got); err != nil {
				t.Fatal(err)
			}
			for f := range want {
				if got[f] != want[f] {
					t.Fatalf("part %d link (%d,%d) feature %d: extracted %v, full %v",
						p, pool[k].I, pool[k].J, f, got[f], want[f])
				}
			}
		}
	}
}

// TestExtractShardMaps checks the remap bookkeeping: monotone index
// assignment, inverse maps that round-trip every pool endpoint, and a
// strictly smaller sub-network.
func TestExtractShardMaps(t *testing.T) {
	pair, _, plan := shardPlan(t)
	fullNodes := 0
	for _, tp := range pair.G1.NodeTypes() {
		fullNodes += pair.G1.NodeCount(tp)
	}
	for _, tp := range pair.G2.NodeTypes() {
		fullNodes += pair.G2.NodeCount(tp)
	}
	shrank := false
	for p := range plan.Parts {
		part := &plan.Parts[p]
		shard, err := ExtractShard(pair, part)
		if err != nil {
			t.Fatalf("part %d: %v", p, err)
		}
		// Inverse maps are strictly increasing (monotone remap) and
		// round-trip external IDs.
		for s := 1; s < len(shard.InvUsers1); s++ {
			if shard.InvUsers1[s] <= shard.InvUsers1[s-1] {
				t.Fatalf("part %d: InvUsers1 not monotone at %d", p, s)
			}
		}
		for s, orig := range shard.InvUsers2 {
			if shard.Pair.G2.NodeID(pair.AnchorType, s) != pair.G2.NodeID(pair.AnchorType, int(orig)) {
				t.Fatalf("part %d: InvUsers2[%d]=%d maps to a different external ID", p, s, orig)
			}
		}
		// Pool links translate back to the originals.
		for k, a := range shard.Part.TrainPos {
			back := hetnet.Anchor{I: int(shard.InvUsers1[a.I]), J: int(shard.InvUsers2[a.J])}
			if back != part.TrainPos[k] {
				t.Fatalf("part %d: train anchor %d maps back to %v, want %v", p, k, back, part.TrainPos[k])
			}
		}
		for k, c := range shard.Part.Candidates {
			back := hetnet.Anchor{I: int(shard.InvUsers1[c.I]), J: int(shard.InvUsers2[c.J])}
			if back != part.Candidates[k] {
				t.Fatalf("part %d: candidate %d maps back to %v, want %v", p, k, back, part.Candidates[k])
			}
		}
		if shard.Part.Index != part.Index || shard.Part.Budget != part.Budget {
			t.Errorf("part %d: Index/Budget not preserved", p)
		}
		subNodes := 0
		for _, tp := range shard.Pair.G1.NodeTypes() {
			subNodes += shard.Pair.G1.NodeCount(tp)
		}
		for _, tp := range shard.Pair.G2.NodeTypes() {
			subNodes += shard.Pair.G2.NodeCount(tp)
		}
		if subNodes > fullNodes {
			t.Errorf("part %d: extraction grew the pair (%d > %d nodes)", p, subNodes, fullNodes)
		}
		if subNodes < fullNodes {
			shrank = true
		}
		if err := shard.Pair.Validate(); err != nil {
			t.Errorf("part %d: extracted pair invalid: %v", p, err)
		}
	}
	// A dense tiny closure may cover the whole pair for SOME part, but a
	// K=3 plan where NO shard shrinks would mean extraction does nothing.
	if !shrank {
		t.Error("no shard shrank under extraction")
	}
}

// TestExtractShardRejectsUnknownShape pins the refusal contract: a link
// type outside the social/authorship/attribute shape must error rather
// than extract silently wrong features.
func TestExtractShardRejectsUnknownShape(t *testing.T) {
	g1 := hetnet.NewSocialNetwork("g1")
	g2 := hetnet.NewSocialNetwork("g2")
	for u := 0; u < 4; u++ {
		g1.AddNode(hetnet.User, fmt.Sprintf("u%d", u))
		g2.AddNode(hetnet.User, fmt.Sprintf("u%d", u))
	}
	// A location→location link type fits no closure role.
	if err := g1.DeclareLink("near", hetnet.Location, hetnet.Location); err != nil {
		t.Fatal(err)
	}
	pair := hetnet.NewAlignedPair(g1, g2)
	part := &Part{TrainPos: []hetnet.Anchor{{I: 0, J: 0}}, Candidates: []hetnet.Anchor{{I: 1, J: 1}}}
	if _, err := ExtractShard(pair, part); err == nil {
		t.Fatal("unknown link shape extracted without error")
	}
}
