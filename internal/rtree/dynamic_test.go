package rtree

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geometry"
)

func TestNewDynamicValidation(t *testing.T) {
	if _, err := NewDynamic(2); err == nil {
		t.Error("branch factor 2 accepted")
	}
	d, err := NewDynamic(0)
	if err != nil {
		t.Fatal(err)
	}
	if d.m != DefaultBranchFactor {
		t.Errorf("default m = %d", d.m)
	}
}

func TestDynamicInsertValidation(t *testing.T) {
	d := MustNewDynamic(4)
	if err := d.Insert(Entry{Rect: geometry.NewRect(5, 5), ID: 0}); err == nil {
		t.Error("empty rect accepted")
	}
	if err := d.Insert(Entry{Rect: geometry.NewRect(0, 1, 0, 1), ID: 0}); err != nil {
		t.Fatal(err)
	}
	if err := d.Insert(Entry{Rect: geometry.NewRect(0, 1), ID: 1}); err == nil {
		t.Error("mixed dims accepted")
	}
}

func TestDynamicEmpty(t *testing.T) {
	d := MustNewDynamic(4)
	if d.Len() != 0 {
		t.Errorf("Len = %d", d.Len())
	}
	if got := query(d, geometry.Point{1}); got != nil {
		t.Errorf("query on empty = %v", got)
	}
	if d.Delete(0, geometry.NewRect(0, 1)) {
		t.Error("delete on empty succeeded")
	}
	if err := d.checkInvariants(); err != nil {
		t.Error(err)
	}
}

func TestDynamicInsertQueryMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := MustNewDynamic(6)
	entries := randomEntries(rng, 800, 3)
	for _, e := range entries {
		if err := d.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != 800 {
		t.Fatalf("Len = %d", d.Len())
	}
	for i := 0; i < 300; i++ {
		p := randomPoint(rng, 3)
		got, st := d.MatchAppendStats(p, nil)
		if want := bruteMatch(entries, p); !equalIDs(got, want) {
			t.Fatalf("MatchAppendStats(%v): %d ids, want %d", p, len(got), len(want))
		}
		if st.Matched != len(got) || st.EntriesTested < st.Matched || st.LeavesVisited > st.NodesVisited {
			t.Fatalf("MatchAppendStats(%v): inconsistent stats %+v for %d ids", p, st, len(got))
		}
	}
}

func TestDynamicDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	d := MustNewDynamic(5)
	entries := randomEntries(rng, 400, 2)
	for _, e := range entries {
		if err := d.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	// Delete every third entry.
	live := make([]Entry, 0, len(entries))
	for i, e := range entries {
		if i%3 == 0 {
			if !d.Delete(e.ID, e.Rect) {
				t.Fatalf("Delete(%d) failed", e.ID)
			}
			continue
		}
		live = append(live, e)
	}
	if err := d.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if d.Len() != len(live) {
		t.Fatalf("Len = %d, want %d", d.Len(), len(live))
	}
	// Deleting again fails.
	if d.Delete(entries[0].ID, entries[0].Rect) {
		t.Error("double delete succeeded")
	}
	// Wrong rectangle fails.
	if d.Delete(live[0].ID, geometry.NewRect(-100, -99, -100, -99)) {
		t.Error("delete with wrong rect succeeded")
	}
	for i := 0; i < 200; i++ {
		p := randomPoint(rng, 2)
		if !equalIDs(query(d, p), bruteMatch(live, p)) {
			t.Fatalf("post-delete mismatch at %v", p)
		}
	}
}

func TestDynamicDeleteToEmpty(t *testing.T) {
	d := MustNewDynamic(4)
	entries := randomEntries(rand.New(rand.NewSource(3)), 50, 2)
	for _, e := range entries {
		if err := d.Insert(e); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range entries {
		if !d.Delete(e.ID, e.Rect) {
			t.Fatalf("delete %d failed", e.ID)
		}
	}
	if d.Len() != 0 || d.root != nil {
		t.Errorf("tree not empty: len=%d root=%v", d.Len(), d.root)
	}
	// Reusable after emptying.
	if err := d.Insert(entries[0]); err != nil {
		t.Fatal(err)
	}
	if len(query(d, entries[0].Rect.Center())) != 1 {
		t.Error("reinsert after emptying lost the entry")
	}
}

func TestDynamicChurnOracle(t *testing.T) {
	// Random interleaved inserts/deletes/queries against a brute-force
	// oracle, checking invariants as the tree reshapes.
	cfg := &quick.Config{MaxCount: 25, Rand: rand.New(rand.NewSource(4))}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := MustNewDynamic(4 + rng.Intn(12))
		live := map[int]Entry{}
		nextID := 0
		for step := 0; step < 400; step++ {
			switch {
			case len(live) == 0 || rng.Float64() < 0.6:
				e := randomEntries(rng, 1, 2)[0]
				e.ID = nextID
				nextID++
				if err := d.Insert(e); err != nil {
					return false
				}
				live[e.ID] = e
			default:
				// Delete a random live entry.
				for id, e := range live {
					if !d.Delete(id, e.Rect) {
						return false
					}
					delete(live, id)
					break
				}
			}
		}
		if err := d.checkInvariants(); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		entries := make([]Entry, 0, len(live))
		for _, e := range live {
			entries = append(entries, e)
		}
		for q := 0; q < 30; q++ {
			p := randomPoint(rng, 2)
			if !equalIDs(query(d, p), bruteMatch(entries, p)) {
				return false
			}
		}
		return d.Len() == len(live)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func BenchmarkDynamicInsert(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	entries := randomEntries(rng, 4096, 4)
	b.ResetTimer()
	d := MustNewDynamic(0)
	for i := 0; i < b.N; i++ {
		e := entries[i%len(entries)]
		e.ID = i
		if err := d.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDynamicQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	d := MustNewDynamic(0)
	for _, e := range randomEntries(rng, 10000, 4) {
		if err := d.Insert(e); err != nil {
			b.Fatal(err)
		}
	}
	p := randomPoint(rng, 4)
	var dst []int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst, _ = d.MatchAppendStats(p, dst[:0])
	}
}
