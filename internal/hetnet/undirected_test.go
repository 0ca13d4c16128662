package hetnet_test

import (
	"slices"
	"testing"

	"github.com/activeiter/activeiter/internal/datagen"
	"github.com/activeiter/activeiter/internal/hetnet"
	"github.com/activeiter/activeiter/internal/sparse"
)

// TestUndirectedNeighborsIsThePatternOfAPlusAT checks the follow lists
// against the pattern of A + Aᵀ, summed by sparse.Add: on the small
// preset, on the benchmark's `default` shape (PaperShape at ten and six
// posts per user, seed 101) and on a hand-built network with a
// self-loop, reciprocal edges, a duplicate edge and isolated users.
func TestUndirectedNeighborsIsThePatternOfAPlusAT(t *testing.T) {
	hand := hetnet.NewSocialNetwork("hand")
	for _, id := range []string{"a", "b", "c", "d", "e", "f"} {
		hand.AddNode(hetnet.User, id)
	}
	// d and f stay isolated; b follows itself; a and c follow each other.
	for _, e := range [][2]int{{0, 2}, {2, 0}, {1, 1}, {1, 0}, {4, 1}, {4, 1}, {2, 4}} {
		if err := hand.AddLink(hetnet.Follow, e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	def := datagen.PaperShape()
	def.Seed, def.PostsPerUser1, def.PostsPerUser2 = 101, 10, 6
	nets := map[string]*hetnet.Network{"hand": hand}
	for name, cfg := range map[string]datagen.Config{"small": datagen.Small(), "default": def} {
		pair, err := datagen.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		nets[name+"/G1"], nets[name+"/G2"] = pair.G1, pair.G2
	}
	for name, g := range nets {
		t.Run(name, func(t *testing.T) {
			got, err := g.UndirectedNeighbors(hetnet.Follow)
			if err != nil {
				t.Fatal(err)
			}
			adj, err := g.Adjacency(hetnet.Follow)
			if err != nil {
				t.Fatal(err)
			}
			sym := sparse.Add(adj, adj.T())
			if len(got) != sym.Rows() {
				t.Fatalf("%d neighbour lists for %d users", len(got), sym.Rows())
			}
			for i, l := range got {
				want, _ := sym.RowSlice(i)
				have := make([]int, len(l))
				for n, j := range l {
					have[n] = int(j)
				}
				if !slices.Equal(have, want) {
					t.Fatalf("user %d: neighbours %v, want %v", i, l, want)
				}
			}
		})
	}
}
