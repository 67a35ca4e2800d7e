package match

import (
	"repro/internal/predindex"
	"repro/internal/rtree"
	"repro/internal/stree"
)

// Shape describes the structure of a built matcher for introspection:
// what algorithm backs it, how many rectangles it indexes, and — for
// tree matchers — the tree and flattened-array dimensions a query
// traverses. Zero-valued tree fields mean the matcher has no tree
// (brute force, predicate counting).
type Shape struct {
	Algorithm string `json:"algorithm"`
	Entries   int    `json:"entries"`
	Nodes     int    `json:"nodes,omitempty"`
	Leaves    int    `json:"leaves,omitempty"`
	Height    int    `json:"height,omitempty"`
	MaxBranch int    `json:"max_branch,omitempty"`
	// FlatNodes/FlatEntries size the structure-of-arrays form packed
	// queries actually walk; zero for matchers without a flat form.
	FlatNodes   int `json:"flat_nodes,omitempty"`
	FlatEntries int `json:"flat_entries,omitempty"`
}

// Describe reports the shape of any matcher built by New. Unknown
// Matcher implementations report only their entry count with algorithm
// "unknown"; a nil matcher reports the zero Shape.
func Describe(m Matcher) Shape {
	switch t := m.(type) {
	case nil:
		return Shape{}
	case *stree.Tree:
		st := t.Stats()
		fn, fe := t.FlatSize()
		return Shape{
			Algorithm: AlgSTree.String(), Entries: t.Len(),
			Nodes: st.Nodes, Leaves: st.Leaves, Height: st.Height, MaxBranch: st.MaxBranch,
			FlatNodes: fn, FlatEntries: fe,
		}
	case *rtree.Tree:
		st := t.Stats()
		fn, fe := t.FlatSize()
		return Shape{
			Algorithm: AlgHilbertRTree.String(), Entries: t.Len(),
			Nodes: st.Nodes, Leaves: st.Leaves, Height: st.Height, MaxBranch: st.MaxBranch,
			FlatNodes: fn, FlatEntries: fe,
		}
	case *rtree.Dynamic:
		st := t.Stats()
		return Shape{
			Algorithm: AlgDynamicRTree.String(), Entries: t.Len(),
			Nodes: st.Nodes, Leaves: st.Leaves, Height: st.Height, MaxBranch: st.MaxBranch,
		}
	case BruteForce:
		return Shape{Algorithm: AlgBruteForce.String(), Entries: t.Len()}
	case *predindex.Index:
		return Shape{Algorithm: AlgPredCount.String(), Entries: t.Len()}
	default:
		return Shape{Algorithm: "unknown", Entries: m.Len()}
	}
}
