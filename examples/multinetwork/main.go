// Multinetwork: align three social networks at once — the extension the
// paper sketches in Section II. Each pair is aligned with the standard
// machinery; the pairwise predictions are then reconciled into identity
// clusters that are one-to-one per network and transitively consistent,
// including correspondences no pairwise run predicted directly.
package main

import (
	"fmt"
	"log"

	"github.com/activeiter/activeiter/internal/core"
	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/metadiag"
	"github.com/activeiter/activeiter/internal/multinet"
	"github.com/activeiter/activeiter/internal/schema"
)

func main() {
	// Three networks over one latent population; the first 40 users of
	// each are the same people.
	ds, err := datagen.GenerateMulti(datagen.Tiny(), 3)
	if err != nil {
		log.Fatal(err)
	}
	set := multinet.NewAlignedSet(ds.Nets...)
	for _, row := range ds.SharedUsers {
		for i := 0; i < 3; i++ {
			for j := i + 1; j < 3; j++ {
				if err := set.AddAnchor(i, j, row[i], row[j]); err != nil {
					log.Fatal(err)
				}
			}
		}
	}

	// Pairwise alignment: train on 25% of each pair's anchors, infer the
	// rest over diagram-proposed candidates.
	var predictions []multinet.ScoredLink
	for _, ij := range set.Pairs() {
		pair, err := set.Pair(ij[0], ij[1])
		if err != nil {
			log.Fatal(err)
		}
		train := pair.Anchors[:len(pair.Anchors)/4]
		counter, err := metadiag.NewCounter(pair)
		if err != nil {
			log.Fatal(err)
		}
		counter.SetAnchors(train)
		ext := metadiag.NewExtractor(counter, schema.StandardLibrary().All(), true)
		cands, err := ext.Candidates(4)
		if err != nil {
			log.Fatal(err)
		}
		links := append(append([]hetnet.Anchor{}, train...), cands...)
		x, err := ext.FeatureMatrix(links)
		if err != nil {
			log.Fatal(err)
		}
		labeled := make([]int, len(train))
		for k := range labeled {
			labeled[k] = k
		}
		res, err := core.Train(core.Problem{Links: links, X: x, LabeledPos: labeled}, core.Config{Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		n := 0
		for idx, l := range links {
			if res.Y[idx] == 1 {
				predictions = append(predictions, multinet.ScoredLink{
					NetI: ij[0], NetJ: ij[1], A: l, Score: res.Scores[idx],
				})
				n++
			}
		}
		fmt.Printf("pair (%d,%d): %d predicted links\n", ij[0], ij[1], n)
	}

	// Reconcile into globally consistent identities.
	clusters, rejected := multinet.Reconcile(predictions)
	full := 0
	for _, c := range clusters {
		if len(c.Members) == 3 {
			full++
		}
	}
	fmt.Printf("\nreconciled %d identity clusters (%d spanning all three networks, %d links rejected as inconsistent)\n",
		len(clusters), full, rejected)

	// Transitively inferred links: in clusters spanning all three
	// networks, some pair correspondences were never predicted directly.
	direct := make(map[string]bool)
	for _, p := range predictions {
		direct[fmt.Sprintf("%d:%d-%d:%d", p.NetI, p.A.I, p.NetJ, p.A.J)] = true
	}
	inferred := 0
	for _, ij := range set.Pairs() {
		for _, l := range multinet.PairLinks(clusters, ij[0], ij[1]) {
			if !direct[fmt.Sprintf("%d:%d-%d:%d", ij[0], l.I, ij[1], l.J)] {
				inferred++
			}
		}
	}
	fmt.Printf("transitively inferred correspondences (never predicted pairwise): %d\n", inferred)
}
