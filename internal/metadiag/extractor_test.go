package metadiag

import (
	"math"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
)

func TestProximityDefinition(t *testing.T) {
	c := newTestCounter(t)
	prox, err := c.Proximity(schema.AttributePath(hetnet.At).AsDiagram())
	if err != nil {
		t.Fatal(err)
	}
	// Fixture P5 counts: (0,0)=1,(0,2)=1,(1,0)=1,(1,2)=1.
	// Row sums: [2,2,0]; col sums: [2,0,2].
	// s(0,0) = 2·1/(2+2) = 0.5.
	if got := prox.Score(0, 0); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("Score(0,0) = %v, want 0.5", got)
	}
	if got := prox.Score(0, 1); got != 0 {
		t.Errorf("Score(0,1) = %v, want 0", got)
	}
	if got := prox.Score(2, 2); got != 0 {
		t.Errorf("Score(2,2) = %v, want 0 (no instances)", got)
	}
	sm := prox.ScoreMatrix()
	if got := sm.At(1, 2); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("ScoreMatrix(1,2) = %v, want 0.5", got)
	}
	if sm.NNZ() != prox.Counts.NNZ() {
		t.Errorf("ScoreMatrix pattern differs: %d vs %d", sm.NNZ(), prox.Counts.NNZ())
	}
}

func TestProximityBounded(t *testing.T) {
	// s = 2c/(r+c') with c ≤ min(r, c') implies s ≤ 1.
	c := newTestCounter(t)
	lib := schema.StandardLibrary()
	for _, n := range lib.All() {
		prox, err := c.Proximity(n.D)
		if err != nil {
			t.Fatal(err)
		}
		sm := prox.ScoreMatrix()
		sm.Iterate(func(i, j int, v float64) {
			if v < 0 || v > 1+1e-12 {
				t.Errorf("%s: score(%d,%d) = %v outside [0,1]", n.ID, i, j, v)
			}
		})
	}
}

func TestExtractorShape(t *testing.T) {
	c := newTestCounter(t)
	lib := schema.StandardLibrary()
	e := NewExtractor(c, lib.All(), true)
	if e.Dim() != 32 {
		t.Errorf("Dim = %d, want 32 (31 diagrams + bias)", e.Dim())
	}
	names := e.Names()
	if len(names) != 32 || names[0] != "P1" || names[31] != "BIAS" {
		t.Errorf("Names = %v", names[:2])
	}
	noBias := NewExtractor(c, lib.PathsOnly(), false)
	if noBias.Dim() != 6 {
		t.Errorf("paths-only Dim = %d, want 6", noBias.Dim())
	}
}

func TestExtractorFeatureVector(t *testing.T) {
	c := newTestCounter(t)
	lib := schema.StandardLibrary()
	e := NewExtractor(c, lib.All(), true)
	out := make([]float64, e.Dim())
	if err := e.FeatureVector(0, 0, out); err != nil {
		t.Fatal(err)
	}
	if out[len(out)-1] != 1 {
		t.Error("bias feature should be 1")
	}
	// Feature k must equal the proximity score of diagram k.
	for k, n := range lib.All() {
		prox, err := c.Proximity(n.D)
		if err != nil {
			t.Fatal(err)
		}
		if want := prox.Score(0, 0); math.Abs(out[k]-want) > 1e-12 {
			t.Errorf("feature %s = %v, want %v", n.ID, out[k], want)
		}
	}
	// Wrong buffer size errors.
	if err := e.FeatureVector(0, 0, make([]float64, 3)); err == nil {
		t.Error("wrong buffer length should fail")
	}
}

func TestExtractorFeatureMatrix(t *testing.T) {
	c := newTestCounter(t)
	lib := schema.StandardLibrary()
	e := NewExtractor(c, lib.All(), true)
	pairs := []hetnet.Anchor{{I: 0, J: 0}, {I: 0, J: 2}, {I: 2, J: 2}}
	x, err := e.FeatureMatrix(pairs)
	if err != nil {
		t.Fatal(err)
	}
	if r, cc := x.Dims(); r != 3 || cc != 32 {
		t.Fatalf("FeatureMatrix dims %dx%d", r, cc)
	}
	want := make([]float64, e.Dim())
	for k, pr := range pairs {
		if err := e.FeatureVector(pr.I, pr.J, want); err != nil {
			t.Fatal(err)
		}
		for col := range want {
			if math.Abs(x.At(k, col)-want[col]) > 1e-12 {
				t.Fatalf("row %d col %d: %v != %v", k, col, x.At(k, col), want[col])
			}
		}
	}
}

func TestExtractorRecomputeAfterAnchorChange(t *testing.T) {
	c := newTestCounter(t)
	lib := schema.StandardLibrary()
	e := NewExtractor(c, lib.All(), false)
	out1 := make([]float64, e.Dim())
	if err := e.FeatureVector(0, 0, out1); err != nil {
		t.Fatal(err)
	}
	// Removing anchor (u1,v1) kills P1(0,0)'s only instance.
	c.SetAnchors([]hetnet.Anchor{{I: 0, J: 0}})
	if err := e.Recompute(); err != nil {
		t.Fatal(err)
	}
	out2 := make([]float64, e.Dim())
	if err := e.FeatureVector(0, 0, out2); err != nil {
		t.Fatal(err)
	}
	if out1[0] == 0 {
		t.Fatal("precondition: P1 feature should be nonzero with both anchors")
	}
	if out2[0] != 0 {
		t.Errorf("P1 feature after anchor restriction = %v, want 0", out2[0])
	}
}

// TestExtractorProductsAreDistinctDiagrams: Recompute builds one product
// per distinct canonical (head, post) pair of the factored features —
// Ψ^f²[P1,P2] and Ψ^f²[P3,P4] are one mutual follow at each end and
// share theirs — and no two of its products hold one x and one y.
func TestExtractorProductsAreDistinctDiagrams(t *testing.T) {
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, lib := range []struct {
		name string
		lib  schema.Library
	}{{"standard", schema.StandardLibrary()}, {"extended", schema.ExtendedLibrary()}} {
		c, err := NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		feats := lib.lib.All()
		e := NewExtractor(c, feats, true)
		if err := e.Recompute(); err != nil {
			t.Fatal(err)
		}
		distinct := make(map[[2]string]bool)
		for _, f := range feats {
			if head, post, _, ok := factorise(f.D); ok {
				distinct[[2]string{schema.Canonical(head).Notation(), schema.Canonical(post).Notation()}] = true
			}
		}
		if len(e.products) != len(distinct) {
			t.Errorf("%s: %d products, %d distinct canonical (head, post) pairs", lib.name, len(e.products), len(distinct))
		}
		for a, pa := range e.products {
			for _, pb := range e.products[a+1:] {
				if pa.x.Equal(pb.x) && pa.y.Equal(pb.y) {
					t.Errorf("%s: two products hold equal x and y (%s)", lib.name, pa.preD.Notation())
				}
			}
		}
		if lib.name == "standard" && len(e.products) != 9 {
			t.Errorf("standard library: %d products, want 9", len(e.products))
		}
	}
}
