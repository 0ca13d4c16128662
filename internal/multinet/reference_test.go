package multinet

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"github.com/activeiter/activeiter/internal/hetnet"
)

// referenceClusterOrder is Finish's cluster sort as it stood before the
// keys were stored: the key formatted with fmt inside the comparator,
// O(n log n) times. Kept verbatim; Finish must produce this order.
func referenceClusterOrder(clusters []Cluster) {
	key := func(c Cluster) string {
		nets := make([]int, 0, len(c.Members))
		for n := range c.Members {
			nets = append(nets, n)
		}
		sort.Ints(nets)
		key := ""
		for _, n := range nets {
			key += fmt.Sprintf("%d:%d;", n, c.Members[n])
		}
		return key
	}
	sort.Slice(clusters, func(a, b int) bool {
		return key(clusters[a]) < key(clusters[b])
	})
}

// TestFinishOrderMatchesReference: the stored-key sort orders clusters
// exactly as the old comparator did — byte-wise on the formatted key, so
// user 10 sorts before user 9, and user 50 before user 5 because ';'
// sorts after every digit — on streams whose members run to four digits
// across three networks.
func TestFinishOrderMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 50; trial++ {
		nUsers := []int{12, 150, 1200}[trial%3]
		var links []ScoredLink
		for k := 0; k < 400; k++ {
			i := 1 + rng.Intn(3)
			j := 1 + rng.Intn(3)
			if i == j {
				continue
			}
			links = append(links, ScoredLink{
				NetI: i, NetJ: j,
				A:     hetnet.Anchor{I: rng.Intn(nUsers), J: rng.Intn(nUsers)},
				Score: rng.Float64(),
			})
		}
		got, _ := Reconcile(links)
		want := append([]Cluster(nil), got...)
		rng.Shuffle(len(want), func(a, b int) { want[a], want[b] = want[b], want[a] })
		referenceClusterOrder(want)
		if !clustersEqual(got, want) {
			t.Fatalf("trial %d: Finish orders %d clusters differently from the reference comparator", trial, len(got))
		}
		multiDigit, threeNets := false, false
		for _, c := range got {
			threeNets = threeNets || len(c.Members) == 3
			for _, u := range c.Members {
				multiDigit = multiDigit || u >= 10
			}
		}
		if !multiDigit || !threeNets {
			t.Fatalf("trial %d: stream produced no multi-digit member (%v) or no three-network cluster (%v)", trial, multiDigit, threeNets)
		}
	}
	// The byte-wise cases by hand.
	got, _ := Reconcile([]ScoredLink{
		{NetI: 1, NetJ: 2, A: hetnet.Anchor{I: 9, J: 0}, Score: 1},
		{NetI: 1, NetJ: 2, A: hetnet.Anchor{I: 10, J: 1}, Score: 1},
		{NetI: 1, NetJ: 2, A: hetnet.Anchor{I: 5, J: 70}, Score: 1},
		{NetI: 2, NetJ: 3, A: hetnet.Anchor{I: 70, J: 1}, Score: 1},
		{NetI: 1, NetJ: 2, A: hetnet.Anchor{I: 50, J: 7}, Score: 1},
	})
	var keys []string
	for _, c := range got {
		keys = append(keys, clusterKey(c))
	}
	want := []string{"1:10;2:1;", "1:50;2:7;", "1:5;2:70;3:1;", "1:9;2:0;"}
	if fmt.Sprint(keys) != fmt.Sprint(want) {
		t.Fatalf("cluster order %v, want %v", keys, want)
	}
}
