package stree

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// cmpKeyed is the comparison the builder sorted with before sortKeyed:
// slices.SortFunc only asks cmp < 0, which holds exactly when
// x.key < y.key.
func cmpKeyed(x, y keyed) int {
	switch {
	case x.key < y.key:
		return -1
	case x.key > y.key:
		return 1
	}
	return 0
}

// sortKeyed must leave every pair where slices.SortFunc with cmpKeyed
// leaves it, ties included: the payload i records each pair's input
// position, so two equal keys in swapped order fail the test. The inputs
// cover pdqsort's branches — insertion sort up to 12, median of three up
// to 50, the ninther beyond, the already-sorted and reversed fast paths,
// pattern breaking and the equal-elements partition — over key pools
// with few distinct values, −0 next to +0, and ±Inf.
func TestSortKeyedMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	negZero := math.Copysign(0, -1)
	pools := map[string][]float64{
		"one":      {3},
		"two":      {0, 1},
		"zeros":    {negZero, 0},
		"bst":      {1, 2, 3},
		"inf":      {math.Inf(-1), -1, negZero, 0, 1, math.Inf(1)},
		"integers": {-4, -3, -2, -1, 0, 1, 2, 3, 4},
		"distinct": nil,
	}
	shapes := []string{"random", "sorted", "reversed", "sawtooth", "organ", "nearly sorted"}
	for name, pool := range pools {
		for _, shape := range shapes {
			for _, n := range []int{0, 1, 2, 7, 8, 12, 13, 49, 50, 51, 64, 100, 257, 1000, 4096} {
				in := make([]keyed, n)
				for k := range in {
					v := rng.NormFloat64()
					if pool != nil {
						v = pool[rng.Intn(len(pool))]
					}
					in[k] = keyed{key: v, i: int32(k)}
				}
				arrange(in, shape, rng)
				want := slices.Clone(in)
				slices.SortFunc(want, cmpKeyed)
				got := slices.Clone(in)
				sortKeyed(got)
				for k := range got {
					if got[k].i != want[k].i || math.Float64bits(got[k].key) != math.Float64bits(want[k].key) {
						t.Fatalf("%s/%s/n=%d: position %d holds input %d (key %v), slices.SortFunc put input %d (key %v) there",
							name, shape, n, k, got[k].i, got[k].key, want[k].i, want[k].key)
					}
				}
			}
		}
	}
}

// arrange reorders in into one of the input shapes pdqsort special-cases
// and renumbers the payloads to the new positions.
func arrange(in []keyed, shape string, rng *rand.Rand) {
	switch shape {
	case "random":
	case "sorted":
		slices.SortStableFunc(in, cmpKeyed)
	case "reversed":
		slices.SortStableFunc(in, cmpKeyed)
		slices.Reverse(in)
	case "sawtooth":
		for start := 0; start < len(in); start += 10 {
			slices.SortStableFunc(in[start:min(start+10, len(in))], cmpKeyed)
		}
	case "organ":
		slices.SortStableFunc(in, cmpKeyed)
		slices.Reverse(in[len(in)/2:])
	case "nearly sorted":
		slices.SortStableFunc(in, cmpKeyed)
		for s := 0; s < 3 && len(in) > 1; s++ {
			a, b := rng.Intn(len(in)), rng.Intn(len(in))
			in[a], in[b] = in[b], in[a]
		}
	default:
		panic(fmt.Sprintf("unknown shape %q", shape))
	}
	for k := range in {
		in[k].i = int32(k)
	}
}
