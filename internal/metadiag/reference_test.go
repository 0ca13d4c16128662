package metadiag

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
	"github.com/activeiter/activeiter/internal/sparse"
)

// referenceCount evaluates a diagram the way Counter.compute did before
// it learnt the joint-attribute identity — every Series a Chain of its
// parts, every Parallel a Hadamard fold over fully built parts — with no
// cache in between. It is the differential reference for compute.
func referenceCount(t *testing.T, c *Counter, d schema.Diagram) *sparse.CSR {
	t.Helper()
	switch v := d.(type) {
	case schema.Edge:
		m, err := c.adjacencyOriented(v)
		if err != nil {
			t.Fatal(err)
		}
		return m
	case schema.MetaPath:
		return referenceCount(t, c, v.AsDiagram())
	case schema.Series:
		parts := make([]*sparse.CSR, len(v.Parts))
		for i, p := range v.Parts {
			parts[i] = referenceCount(t, c, p)
		}
		return sparse.Chain(parts...)
	case schema.Parallel:
		acc := referenceCount(t, c, v.Parts[0])
		for _, p := range v.Parts[1:] {
			acc = sparse.Hadamard(acc, referenceCount(t, c, p))
		}
		return acc
	default:
		t.Fatalf("referenceCount: unknown diagram type %T", d)
		return nil
	}
}

// referenceMarginals is the per-fold walk Recompute ran before anchors'
// terms were stored: every product's stacked sums from one
// MatMulMarginals over its whole pre∘anchor factor, the bare ones from
// two matvecs, a materialised feature's its count's own. It reads the
// factors a recomputed e holds and returns each feature's row and column
// sums in library order.
func referenceMarginals(e *Extractor) (rowSums, colSums [][]float64) {
	walked := make([][2][][]float64, len(e.products))
	for q, p := range e.products {
		rs, cs := sparse.MatMulMarginals(p.x, p.y, p.ds)
		walked[q] = [2][][]float64{
			append([][]float64{p.x.MulVec(p.y.RowSums())}, rs...),
			append([][]float64{p.y.TMulVec(p.x.ColSums())}, cs...),
		}
	}
	for _, f := range e.prox {
		if f.prod < 0 {
			m := e.counts[f.stack]
			rowSums, colSums = append(rowSums, m.RowSums()), append(colSums, m.ColSums())
			continue
		}
		slot := 0
		if f.stack >= 0 {
			slot = 1 + slices.Index(e.products[f.prod].ds, e.counts[f.stack])
		}
		rowSums, colSums = append(rowSums, walked[f.prod][0][slot]), append(colSums, walked[f.prod][1][slot])
	}
	return rowSums, colSums
}

// countsFingerprint hashes every feature's count matrix — shape, row
// pointers, columns and the bit pattern of every value — in library
// order.
func countsFingerprint(t *testing.T, c *Counter, feats []schema.Named) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for _, f := range feats {
		m, err := c.Count(f.D)
		if err != nil {
			t.Fatalf("%s: %v", f.ID, err)
		}
		rows, cols, rowPtr, colIdx, val := m.Raw()
		put(uint64(rows))
		put(uint64(cols))
		for _, p := range rowPtr {
			put(uint64(p))
		}
		for _, j := range colIdx {
			put(uint64(j))
		}
		for _, v := range val {
			put(math.Float64bits(v))
		}
	}
	return h.Sum64()
}

// TestCountFingerprintStable pins every count matrix of the standard
// (31) and extended (58) libraries bit for bit across kernel changes
// underneath the counter. The constants were captured on the commit
// before SpGEMM became two-pass and Ψ^a² moved to the joint-attribute
// product.
func TestCountFingerprintStable(t *testing.T) {
	want := map[string]uint64{
		"standard/7":  0x9192ff2db348a935,
		"standard/11": 0x7ad2f6cbb1c5989f,
		"extended/7":  0x1a9a524f0a44f609,
		"extended/11": 0x7d46973ac1f92d8d,
	}
	libs := []struct {
		name  string
		feats []schema.Named
		words int
	}{
		{"standard", schema.StandardLibrary().All(), 0},
		{"extended", schema.ExtendedLibrary().All(), 200},
	}
	for _, lib := range libs {
		for _, seed := range []int64{7, 11} {
			cfg := datagen.Small()
			cfg.Seed = seed
			if lib.words > 0 {
				// Small itself generates no words.
				cfg.Words, cfg.WordsPerPost = lib.words, 2
			}
			pair, err := datagen.Generate(cfg)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCounter(pair)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", lib.name, seed)
			if got := countsFingerprint(t, c, lib.feats); got != want[key] {
				t.Errorf("%s: %d count matrices fingerprint %#x, want %#x", key, len(lib.feats), got, want[key])
			}
		}
	}
}

// randomAttributePair builds a small pair whose posts stress the
// joint-attribute product: attribute rows with zero, one or several
// values (a post carries one timestamp at most, up to multi locations
// and up to 2·multi words), and attribute values that exist in one
// network only.
func randomAttributePair(t *testing.T, rng *rand.Rand, multi int) *hetnet.AlignedPair {
	t.Helper()
	build := func(name, private string, users, posts int) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < users; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("u%d", u))
		}
		link := func(lt hetnet.LinkType, from, to string) {
			if err := g.AddLinkByID(lt, from, to); err != nil {
				t.Fatal(err)
			}
		}
		// value draws a shared ID most of the time and a network-private
		// one otherwise.
		value := func(prefix string, n int) string {
			if rng.Float64() < 0.2 {
				return fmt.Sprintf("%s%s%d", prefix, private, rng.Intn(2))
			}
			return fmt.Sprintf("%s%d", prefix, rng.Intn(n))
		}
		for p := 0; p < posts; p++ {
			pid := fmt.Sprintf("p%d", p)
			link(hetnet.Write, fmt.Sprintf("u%d", rng.Intn(users)), pid)
			if rng.Float64() < 0.85 {
				link(hetnet.At, pid, value("T", 4))
			}
			for n := rng.Intn(multi + 1); n > 0; n-- {
				link(hetnet.Checkin, pid, value("L", 3))
			}
			for n := rng.Intn(2*multi + 1); n > 0; n-- {
				link(hetnet.Contains, pid, value("W", 5))
			}
		}
		return g
	}
	users := 4 + rng.Intn(4)
	pair := hetnet.NewAlignedPair(build("r1", "a", users, 10+rng.Intn(30)), build("r2", "b", users, 10+rng.Intn(30)))
	for i, j := range rng.Perm(users)[:users/2+1] {
		if err := pair.AddAnchor(i, j); err != nil {
			t.Fatal(err)
		}
	}
	return pair
}

// TestJointAttributeMatchesUnfused checks Counter.Count against the
// unfused reference on every attribute stacking — each pair and the
// triple — over random pairs, and that both sides of the flop
// comparison were taken at least once: a fused evaluation leaves no
// post×post part in the shared cache, an unfused one leaves them all.
func TestJointAttributeMatchesUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(1912))
	stackings := [][]hetnet.LinkType{
		{hetnet.At, hetnet.Checkin},
		{hetnet.At, hetnet.Contains},
		{hetnet.Checkin, hetnet.Contains},
		{hetnet.At, hetnet.Checkin, hetnet.Contains},
	}
	fused, unfused := 0, 0
	for trial := 0; trial < 40; trial++ {
		pair := randomAttributePair(t, rng, []int{1, 2, 3, 6}[trial%4])
		for _, rels := range stackings {
			c, err := NewCounter(pair)
			if err != nil {
				t.Fatal(err)
			}
			d := schema.AttributeDiagram(rels...)
			got, err := c.Count(d)
			if err != nil {
				t.Fatal(err)
			}
			if want := referenceCount(t, c, d); !got.Equal(want) {
				t.Fatalf("trial %d %v: Count differs from the unfused evaluation\n got  %v\n want %v", trial, rels, got.ToDense(), want.ToDense())
			}
			stack := d.(schema.Series).Parts[1].(schema.Parallel)
			cached := 0
			for _, part := range stack.Parts {
				if _, ok := c.sh.counts[part.Notation()]; ok {
					cached++
				}
			}
			switch cached {
			case 0:
				fused++
			case len(stack.Parts):
				unfused++
			default:
				t.Fatalf("trial %d %v: %d of %d stacked parts cached — neither fused nor unfused", trial, rels, cached, len(stack.Parts))
			}
		}
	}
	if fused == 0 || unfused == 0 {
		t.Fatalf("fixture exercises one side only: %d fused, %d unfused evaluations", fused, unfused)
	}
}
