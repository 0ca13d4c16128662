package metadiag

import (
	"sync"
	"testing"
	"time"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/schema"
)

// genPair builds a non-trivial pair so concurrent evaluations overlap
// long enough for the race detector to interleave them.
func genPair(t *testing.T) *hetnet.AlignedPair {
	t.Helper()
	pair, err := datagen.Generate(datagen.Tiny())
	if err != nil {
		t.Fatal(err)
	}
	return pair
}

// TestCounterConcurrentCount hammers one shared Counter from many
// goroutines and checks every result matches a serial reference
// counter. Run under -race this exercises the cache layers and the
// per-notation single-flight.
func TestCounterConcurrentCount(t *testing.T) {
	pair := genPair(t)
	ref, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	lib := schema.StandardLibrary().All()
	want := make(map[string]float64, len(lib))
	for _, n := range lib {
		m, err := ref.Count(n.D)
		if err != nil {
			t.Fatal(err)
		}
		want[n.ID] = m.Sum()
	}

	shared, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Stagger starting positions so goroutines collide on
			// different diagrams.
			for k := 0; k < len(lib); k++ {
				n := lib[(k+g)%len(lib)]
				m, err := shared.Count(n.D)
				if err != nil {
					errCh <- err
					return
				}
				if got := m.Sum(); got != want[n.ID] {
					t.Errorf("goroutine %d: %s total = %v, want %v", g, n.ID, got, want[n.ID])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestSingleEdgeWrappersDoNotDeadlock is a regression test: a one-edge
// MetaPath (or single-part Series/Parallel) shares its notation with
// its content, and the per-notation single-flight used to wait on the
// entry its own evaluation registered.
func TestSingleEdgeWrappersDoNotDeadlock(t *testing.T) {
	pair := genPair(t)
	c, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	writeEdge := schema.Fwd(hetnet.Write, schema.User1(), schema.Post1())
	want, err := c.Count(writeEdge)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, d := range []schema.Diagram{
			schema.MetaPath{Edges: []schema.Edge{writeEdge}},
			schema.Series{Parts: []schema.Diagram{writeEdge}},
			schema.Parallel{Parts: []schema.Diagram{writeEdge}},
		} {
			m, err := c.Count(d)
			if err != nil {
				t.Errorf("%s: %v", d.Notation(), err)
				return
			}
			if !m.Equal(want) {
				t.Errorf("%s: wrapper count differs from bare edge", d.Notation())
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("single-edge wrapper count deadlocked")
	}
}

// TestForkSharesAttributeCache verifies the Lemma-2 cross-fold layer: a
// fork answers attribute-only diagrams entirely from the shared cache
// without a single evaluation of its own.
func TestForkSharesAttributeCache(t *testing.T) {
	pair := genPair(t)
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	attr := schema.AttributeDiagram(hetnet.At, hetnet.Checkin)
	if _, err := base.Count(attr); err != nil {
		t.Fatal(err)
	}
	fork := base.Fork()
	if _, err := fork.Count(attr); err != nil {
		t.Fatal(err)
	}
	st := fork.Stats()
	if st.Evaluations != 0 {
		t.Errorf("fork evaluated %d sub-diagrams for a cached attribute diagram, want 0", st.Evaluations)
	}
	if st.CacheHits == 0 {
		t.Error("fork recorded no cache hits against the shared layer")
	}
}

// TestForkIndependentAnchors checks that forks with different anchor
// sets produce the counts a fresh counter with those anchors would,
// without cross-contamination.
func TestForkIndependentAnchors(t *testing.T) {
	pair := genPair(t)
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	d := schema.FollowDiagram(1, 2)
	if _, err := base.Count(d); err != nil {
		t.Fatal(err)
	}
	half := len(pair.Anchors) / 2
	folds := [][]hetnet.Anchor{pair.Anchors[:half], pair.Anchors[half:]}

	var wg sync.WaitGroup
	results := make([]float64, len(folds))
	errs := make([]error, len(folds))
	for i, anchors := range folds {
		wg.Add(1)
		go func(i int, anchors []hetnet.Anchor) {
			defer wg.Done()
			fork := base.Fork()
			fork.SetAnchors(anchors)
			m, err := fork.Count(d)
			if err != nil {
				errs[i] = err
				return
			}
			results[i] = m.Sum()
		}(i, anchors)
	}
	wg.Wait()
	for i, anchors := range folds {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		fresh, err := NewCounter(pair)
		if err != nil {
			t.Fatal(err)
		}
		fresh.SetAnchors(anchors)
		m, err := fresh.Count(d)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Sum(); results[i] != want {
			t.Errorf("fold %d: forked count total = %v, fresh counter = %v", i, results[i], want)
		}
	}
	// The base counter still answers with the full anchor set.
	m, err := base.Count(d)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Count(d)
	if err != nil {
		t.Fatal(err)
	}
	if m.Sum() != want.Sum() {
		t.Errorf("base counter contaminated by forks: total %v, want %v", m.Sum(), want.Sum())
	}
}

// TestConcurrentExtractorRecompute runs many fold workers, each with a
// forked counter and its own extractor, all recomputing concurrently —
// the access pattern of the experiment runners' Workers fan-out.
func TestConcurrentExtractorRecompute(t *testing.T) {
	pair := genPair(t)
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	lib := schema.StandardLibrary().All()
	for _, n := range lib {
		if _, err := base.Count(n.D); err != nil {
			t.Fatal(err)
		}
	}
	const workers = 6
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fork := base.Fork()
			fork.SetAnchors(pair.Anchors[:1+w%len(pair.Anchors)])
			ext := NewExtractor(fork, lib, true)
			if err := ext.Recompute(); err != nil {
				errs[w] = err
				return
			}
			out := make([]float64, ext.Dim())
			if err := ext.FeatureVector(0, 0, out); err != nil {
				errs[w] = err
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSharedProximityAcrossForks: an anchor-free proximity is one object
// for the whole counter family — forks racing on a cold entry, and on
// its lazily built Score lookup, all end up with the same pointer and
// the same scores — whether the count was derived locally or installed
// by SeedInto. Anchor-dependent proximities stay per call.
func TestSharedProximityAcrossForks(t *testing.T) {
	pair := genPair(t)
	base, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	seed, err := base.ExportSeed(schema.StandardLibrary().All())
	if err != nil {
		t.Fatal(err)
	}
	seeded, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	if err := seeded.SeedInto(seed); err != nil {
		t.Fatal(err)
	}
	shared := schema.AttributeDiagram(hetnet.At, hetnet.Checkin)
	private := schema.FollowPath(1)
	for name, root := range map[string]*Counter{"derived": base, "seeded": seeded} {
		const workers = 8
		got := make([]*Proximity, workers)
		scores := make([][20]float64, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				fork := root.Fork()
				fork.SetAnchors(pair.Anchors[:1+w])
				p, err := fork.Proximity(shared)
				if err != nil {
					t.Error(err)
					return
				}
				got[w] = p
				for i := range scores[w] {
					scores[w][i] = p.Score(i, (i+w)%20)
				}
			}(w)
		}
		wg.Wait()
		for w := range got {
			if got[w] != got[0] {
				t.Fatalf("%s: fork %d got its own copy of an anchor-free proximity", name, w)
			}
		}
		want := NewProximity(got[0].Counts)
		for w := range scores {
			for i, s := range scores[w] {
				if fresh := want.Score(i, (i+w)%20); s != fresh {
					t.Fatalf("%s: fork %d read Score(%d,%d) = %v, a fresh proximity says %v", name, w, i, (i+w)%20, s, fresh)
				}
			}
		}
		a, err := root.Proximity(private)
		if err != nil {
			t.Fatal(err)
		}
		b, err := root.Proximity(private)
		if err != nil {
			t.Fatal(err)
		}
		if a == b {
			t.Fatalf("%s: anchor-dependent proximity was cached", name)
		}
	}
}

// TestFeatureMatrixParallelMatchesSerial checks the row-parallel
// FeatureMatrix against serial row-by-row construction on a pool large
// enough to cross the fan-out threshold.
func TestFeatureMatrixParallelMatchesSerial(t *testing.T) {
	pair := genPair(t)
	counter, err := NewCounter(pair)
	if err != nil {
		t.Fatal(err)
	}
	ext := NewExtractor(counter, schema.StandardLibrary().All(), true)
	n1 := pair.G1.NodeCount(hetnet.User)
	n2 := pair.G2.NodeCount(hetnet.User)
	var pool []hetnet.Anchor
	for k := 0; len(pool) < 2*featureMatrixParallelThreshold; k++ {
		pool = append(pool, hetnet.Anchor{I: k % n1, J: (k * 7) % n2})
	}
	x, err := ext.FeatureMatrix(pool)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, ext.Dim())
	for k, pr := range pool {
		if err := ext.FeatureVector(pr.I, pr.J, row); err != nil {
			t.Fatal(err)
		}
		for j, v := range row {
			if x.At(k, j) != v {
				t.Fatalf("row %d col %d: parallel %v, serial %v", k, j, x.At(k, j), v)
			}
		}
	}
}
