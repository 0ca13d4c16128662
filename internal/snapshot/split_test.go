package snapshot

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// randomSnapshot builds a dense synthetic artifact over n1×n2 users
// with a seeded random pool, one-to-one matches and a label log — big
// enough that every range of a random split owns real content.
func randomSnapshot(t testing.TB, seed int64, n1, n2 int) *Snapshot {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	build := func(name string, n int) *hetnet.Network {
		g := hetnet.NewSocialNetwork(name)
		for u := 0; u < n; u++ {
			g.AddNode(hetnet.User, fmt.Sprintf("%s-u%d", name, u))
		}
		return g
	}
	pair := hetnet.NewAlignedPair(build("n1", n1), build("n2", n2))

	seen := make(map[[2]int32]bool)
	var pool []PoolLink
	for len(pool) < n1*4 {
		i, j := int32(rng.Intn(n1)), int32(rng.Intn(n2))
		if seen[[2]int32{i, j}] {
			continue
		}
		seen[[2]int32{i, j}] = true
		pool = append(pool, PoolLink{
			I: i, J: j,
			Label:    float64(rng.Intn(2)),
			Score:    float64(rng.Intn(1000)) / 1000, // discrete scores exercise tie-breaks
			HasScore: rng.Intn(10) > 0,
			Queried:  rng.Intn(4) == 0,
		})
	}
	var matches []Match
	var labels []QueriedLabel
	perm := rng.Perm(n2)
	for i := 0; i < n1 && i < n2; i += 1 + rng.Intn(3) {
		matches = append(matches, Match{I: int32(i), J: int32(perm[i]), Score: rng.Float64(), HasScore: true})
		if rng.Intn(2) == 0 {
			labels = append(labels, QueriedLabel{I: int32(i), J: int32(perm[i]), Label: 1})
		}
	}
	meta := Meta{
		CreatedUnix: 1700000000 + seed,
		Facade:      "partitioned",
		Notation:    []string{"U→U", "U→P→U", "bias"},
		Threshold:   0.5,
		Seed:        seed,
	}
	model := Model{Shards: []ShardModel{
		{Shard: 0, W: []float64{rng.Float64(), rng.Float64(), rng.Float64()}},
		{Shard: 1, W: []float64{rng.Float64(), rng.Float64(), rng.Float64()}},
	}}
	s, err := Build(pair, meta, model, pool, matches, labels, 3)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// randomRanges cuts [0, n) at 1..4 random interior points.
func randomRanges(rng *rand.Rand, n int) []UserRange {
	cuts := map[int]bool{}
	for len(cuts) < 1+rng.Intn(4) {
		c := 1 + rng.Intn(n-1)
		cuts[c] = true
	}
	points := []int32{0}
	for c := 1; c < n; c++ {
		if cuts[c] {
			points = append(points, int32(c))
		}
	}
	points = append(points, int32(n))
	out := make([]UserRange, 0, len(points)-1)
	for i := 0; i+1 < len(points); i++ {
		out = append(out, UserRange{Lo: points[i], Hi: points[i+1]})
	}
	return out
}

// TestSplitMergeLossless is the round-trip property: for random
// artifacts and random user-range splits, Merge(Split(s)) reproduces s
// exactly — same structures, same serialized bytes.
func TestSplitMergeLossless(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(1000 + seed))
		s := randomSnapshot(t, seed, 20+rng.Intn(20), 18+rng.Intn(20))
		ranges := randomRanges(rng, len(s.Meta.Users1))
		shards, err := Split(s, ranges)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(shards) != len(ranges) {
			t.Fatalf("seed %d: %d shards for %d ranges", seed, len(shards), len(ranges))
		}
		// Shuffle to prove Merge orders by shard index, not input order.
		rng.Shuffle(len(shards), func(a, b int) { shards[a], shards[b] = shards[b], shards[a] })
		got, err := Merge(shards)
		if err != nil {
			t.Fatalf("seed %d: merge: %v", seed, err)
		}
		if !reflect.DeepEqual(got, s) {
			t.Fatalf("seed %d: merge diverged from parent", seed)
		}
		var a, b bytes.Buffer
		if err := s.Write(&a); err != nil {
			t.Fatal(err)
		}
		if err := got.Write(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("seed %d: merged artifact serializes differently from the parent", seed)
		}
	}
}

// Every shard must itself be a valid, writable artifact carrying the
// parent's whole net-2 read side — every match and every net-2 candidate
// list — and only its own range's pool links, labels and net-1 lists,
// each equal to the parent's.
func TestSplitShardsServeTheirRange(t *testing.T) {
	s := randomSnapshot(t, 7, 24, 24)
	ranges := EvenRanges(len(s.Meta.Users1), 3)
	shards, err := Split(s, ranges)
	if err != nil {
		t.Fatal(err)
	}
	parent1, parent2 := byNet(s.Cands)
	if len(parent2) == 0 || len(s.Matches) == 0 {
		t.Fatal("fixture has no net-2 read side to replicate")
	}
	for si, sh := range shards {
		var buf bytes.Buffer
		if err := sh.Write(&buf); err != nil {
			t.Fatalf("shard %d does not serialize: %v", si, err)
		}
		back, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("shard %d does not round-trip: %v", si, err)
		}
		if !reflect.DeepEqual(back, sh) {
			t.Fatalf("shard %d round trip diverged", si)
		}
		info := sh.Meta.Shard
		if info == nil || info.Range != ranges[si] || info.Index != si || info.Count != len(ranges) {
			t.Fatalf("shard %d info = %+v", si, info)
		}
		// Replicated: the net-2 read side is the parent's, whole.
		net1, net2 := byNet(sh.Cands)
		if !reflect.DeepEqual(sh.Matches, s.Matches) {
			t.Fatalf("shard %d matches differ from the parent's", si)
		}
		if !reflect.DeepEqual(net2, parent2) {
			t.Fatalf("shard %d net-2 candidate lists differ from the parent's", si)
		}
		// Owned: pool, labels and net-1 lists are exactly the range's.
		var wantPool []PoolLink
		for _, p := range s.Pool {
			if info.Range.Contains(p.I) {
				wantPool = append(wantPool, p)
			}
		}
		var wantLabels []QueriedLabel
		for _, l := range s.Labels {
			if info.Range.Contains(l.I) {
				wantLabels = append(wantLabels, l)
			}
		}
		var want1 []UserCandidates
		for _, uc := range parent1 {
			if info.Range.Contains(uc.User) {
				want1 = append(want1, uc)
			}
		}
		if !reflect.DeepEqual(sh.Pool, wantPool) || !reflect.DeepEqual(sh.Labels, wantLabels) {
			t.Fatalf("shard %d pool/labels are not its range's", si)
		}
		if !reflect.DeepEqual(net1, want1) {
			t.Fatalf("shard %d net-1 candidate lists are not its range's", si)
		}
	}
}

func TestSplitRejectsBadInput(t *testing.T) {
	s := randomSnapshot(t, 3, 12, 12)
	n := int32(len(s.Meta.Users1))
	cases := map[string][]UserRange{
		"empty":       {},
		"gap":         {{0, 4}, {5, n}},
		"overlap":     {{0, 6}, {5, n}},
		"short":       {{0, 6}, {6, n - 1}},
		"inverted":    {{0, 6}, {8, 6}, {6, n}},
		"not-at-zero": {{1, n}},
	}
	for name, ranges := range cases {
		if _, err := Split(s, ranges); err == nil {
			t.Errorf("%s ranges accepted", name)
		}
	}
	shards, err := Split(s, EvenRanges(int(n), 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Split(shards[0], EvenRanges(int(n), 2)); err == nil || !strings.Contains(err.Error(), "already shard") {
		t.Errorf("re-splitting a shard: %v", err)
	}
}

func TestMergeRejectsIncompleteOrMixed(t *testing.T) {
	s := randomSnapshot(t, 4, 16, 16)
	shards, err := Split(s, EvenRanges(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(shards[:2]); err == nil {
		t.Error("partial shard set merged")
	}
	if _, err := Merge([]*Snapshot{shards[0], shards[1], shards[1]}); err == nil {
		t.Error("duplicate shard merged")
	}
	if _, err := Merge([]*Snapshot{s}); err == nil {
		t.Error("non-shard artifact merged")
	}
	// A shard from a different parent must be rejected even when the
	// ranges happen to tile.
	other := randomSnapshot(t, 5, 16, 16)
	otherShards, err := Split(other, EvenRanges(16, 3))
	if err != nil {
		t.Fatal(err)
	}
	mixed := []*Snapshot{shards[0], otherShards[1], shards[2]}
	if _, err := Merge(mixed); err == nil {
		t.Error("mixed-parent shard set merged")
	}
	// Tampering with a shard's content must fail the parent-fingerprint
	// check even though every structural invariant still holds.
	tampered, err := Split(s, EvenRanges(16, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(tampered[1].Pool) == 0 {
		t.Fatal("fixture shard has no pool links to tamper with")
	}
	tampered[1].Pool = tampered[1].Pool[:len(tampered[1].Pool)-1]
	if _, err := Merge(tampered); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Errorf("tampered shard set: %v", err)
	}
	// An edit to a non-first shard's replicated side would pass the
	// fingerprint check (the parent takes that side from shard 0) and
	// leave shard 1 serving different net-2 answers: it must be refused.
	for name, edit := range map[string]func(*Snapshot){
		"match": func(sh *Snapshot) { sh.Matches[0].Score += 0.5 },
		"net-2 list": func(sh *Snapshot) {
			_, net2 := byNet(sh.Cands)
			uc := &net2[0]
			uc.Items = append([]Candidate(nil), uc.Items[1:]...)
		},
	} {
		edited, err := Split(s, EvenRanges(16, 3))
		if err != nil {
			t.Fatal(err)
		}
		edit(edited[1])
		if err := edited[1].Validate(); err != nil {
			t.Fatalf("%s edit broke an invariant: %v", name, err)
		}
		if _, err := Merge(edited); err == nil || !strings.Contains(err.Error(), "replicated net-2 side") {
			t.Errorf("shard set with an edited %s on shard 1: %v", name, err)
		}
	}
}

// TestGoldenShard pins the shard artifact encoding (Meta.Shard ridden
// by a real split) the same way TestGolden pins the whole-artifact
// form. Shard 0 owns no pool link of the fixture, so its bytes are the
// replicated net-2 side alone. Regenerate with -update after a Version
// bump.
func TestGoldenShard(t *testing.T) {
	shards, err := Split(fixtureSnapshot(t), EvenRanges(6, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(shards[0].Pool) != 0 || len(shards[0].Matches) == 0 {
		t.Fatal("fixture shard 0 should own no pool link and replicate the matches")
	}
	checkGolden(t, "snapshot_v5_shard.golden", shards[0])
}

func TestFingerprintTracksContent(t *testing.T) {
	a := randomSnapshot(t, 9, 10, 10)
	b := randomSnapshot(t, 9, 10, 10)
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fa != fb {
		t.Error("equal snapshots fingerprint differently")
	}
	b.Pool[0].Score += 0.25
	if fb2, _ := b.Fingerprint(); fb2 == fa {
		t.Error("changed pool score did not change the fingerprint")
	}
}
