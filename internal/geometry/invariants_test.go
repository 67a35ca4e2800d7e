//go:build invariants

package geometry

import "testing"

// These tests only exist under -tags=invariants: they verify that the
// assertion layer actually fires on dimensionality misuse that normal
// builds silently tolerate.

func mustPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected an invariant panic", name)
		}
	}()
	fn()
}

func TestInvariantDimMismatchPanics(t *testing.T) {
	a := NewRect(0, 1, 0, 1)
	b := NewRect(0, 1)
	mustPanic(t, "Intersect", func() { a.Intersect(b) })
	mustPanic(t, "Union", func() { a.Union(b) })
	mustPanic(t, "ExpandInPlace", func() { a.ExpandInPlace(b) })
	mustPanic(t, "Extend", func() { a.Extend(b) })
	mustPanic(t, "Extend by an empty rectangle", func() { a.Extend(NewRect(0, 0, 0, 1)) })
	mustPanic(t, "ClampedMeasure", func() { a.ClampedMeasure(b) })
}

func TestInvariantMatchedDimsStillWork(t *testing.T) {
	a := NewRect(0, 2, 0, 2)
	b := NewRect(1, 3, 1, 3)
	if got := a.Intersect(b); got.Empty() {
		t.Fatalf("Intersect(%v, %v) is empty", a, b)
	}
	if got := a.Union(b); !got.Equal(NewRect(0, 3, 0, 3)) {
		t.Fatalf("Union = %v", got)
	}
}
