// Fixture for the allocfree analyzer: every construct that can hit the
// heap must be flagged when reachable from a //pubsub:hotpath root, and
// the amortized append-to-caller-storage idiom must stay clean.
package allocfree

import (
	"slices"
	"sync"
)

type item struct {
	id  int
	buf []byte
}

type pool struct {
	mu    sync.Mutex
	items []item
	m     map[int]int
	sink  func()
}

//pubsub:hotpath
func hot(p *pool, out []int) []int {
	p.mu.Lock()
	out = append(out, 1)      // amortized append into caller storage: allowed
	out = slices.Grow(out, 8) // the same idiom: allowed
	p.mu.Unlock()
	allocs(p)
	boxing(7)
	viaValue(p.sink)
	spawner(p)
	lazy(p)
	fresh(out)
	return out
}

func allocs(p *pool) {
	s := make([]int, 4) // want `allocfree: \[hot -> allocs\] make allocates`
	_ = s
	n := new(item) // want `allocfree: \[hot -> allocs\] new allocates`
	_ = n
	p.m[1] = 2    // want `allocfree: \[hot -> allocs\] map assignment may allocate`
	l := []int{3} // want `allocfree: \[hot -> allocs\] composite literal allocates backing storage`
	_ = l
	e := &item{id: 1} // want `allocfree: \[hot -> allocs\] address-taken composite literal escapes to the heap`
	_ = e
	a := "x" + "y" // want `allocfree: \[hot -> allocs\] string concatenation allocates`
	_ = a
	b := []byte("zz") // want `allocfree: \[hot -> allocs\] string conversion allocates`
	_ = b
	x := 1
	f := func() int { return x } // want `allocfree: \[hot -> allocs\] closure captures variables and escapes to the heap`
	_ = f
}

type ids []int

func fresh(out []int) {
	a := append([]int(nil), out...) // want `allocfree: \[hot -> fresh\] append to a fresh slice allocates its backing array`
	b := append(ids(nil), 1)        // want `allocfree: \[hot -> fresh\] append to a fresh slice allocates its backing array`
	c := append(ids(out), 1)        // a conversion of caller storage: allowed
	_, _, _ = a, b, c
}

func sinkAny(v any) { _ = v }

func boxing(n int) {
	sinkAny(n)  // want `allocfree: \[hot -> boxing\] argument boxes a non-pointer value into an interface`
	sinkAny(&n) // pointer: one word, no box
}

func viaValue(fn func()) {
	fn() // want `allocfree: \[hot -> viaValue\] call through a function value cannot be proven allocation-free`
}

func spawner(p *pool) {
	go allocs(p) // want `allocfree: \[hot -> spawner\] go statement allocates a goroutine`
}

//pubsub:coldpath -- lazy materialization runs once per delivered event, off the match path
func lazy(p *pool) {
	p.items = append(p.items, item{}) // inside a declared boundary: not walked
}

//pubsub:coldpath -- stale boundary that nothing hot reaches // want `allocfree: //pubsub:coldpath on unreached is not reached from any //pubsub:hotpath root`
func unreached() {
	_ = make([]int, 1)
}
