// Package fixture exercises the locksafe analyzer: blocking operations
// while a mutex is held must be flagged; lock-free blocking, goroutine
// bodies and non-blocking selects must not.
package fixture

import (
	"io"
	"net"
	"sync"
	"time"
)

type pump struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	conn net.Conn
	wg   sync.WaitGroup
}

func (p *pump) sendUnderLock() {
	p.mu.Lock()
	p.ch <- 1 // want `locksafe: channel send while p\.mu is held`
	p.mu.Unlock()
}

func (p *pump) recvUnderDeferredUnlock() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return <-p.ch // want `locksafe: channel receive while p\.mu is held`
}

func (p *pump) sleepUnderRLock() {
	p.rw.RLock()
	time.Sleep(time.Millisecond) // want `locksafe: call to time\.Sleep while p\.rw is held`
	p.rw.RUnlock()
}

func (p *pump) selectNoDefaultUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select { // want `locksafe: select without default while p\.mu is held`
	case v := <-p.ch:
		_ = v
	case p.ch <- 2:
	}
}

func (p *pump) nonblockingSelectIsFine() {
	p.mu.Lock()
	defer p.mu.Unlock()
	select {
	case p.ch <- 3:
	default:
	}
}

func (p *pump) connWriteUnderLock() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, err := p.conn.Write([]byte("x")) // want `locksafe: Write on interface value`
	return err
}

func (p *pump) ioUnderLock(r io.Reader, buf []byte) {
	p.mu.Lock()
	_, _ = io.ReadFull(r, buf) // want `locksafe: call to io\.ReadFull while p\.mu is held`
	p.mu.Unlock()
}

func (p *pump) waitUnderLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.wg.Wait() // want `locksafe: call to WaitGroup\.Wait while p\.mu is held`
}

// block is a helper that blocks on its own; callers holding a lock must
// be flagged at the call site via the package fixpoint.
func (p *pump) block() {
	<-p.ch
}

func (p *pump) callsBlockingHelperUnderLock() {
	p.mu.Lock()
	p.block() // want `locksafe: call to block, which blocks`
	p.mu.Unlock()
}

func (p *pump) unlockedBranchIsTracked(closed bool) {
	p.mu.Lock()
	if closed {
		p.mu.Unlock()
		<-p.ch // lock released on this path: no diagnostic
		return
	}
	p.mu.Unlock()
	p.ch <- 4 // released here too
}

func (p *pump) goroutineDoesNotInheritLock() {
	p.mu.Lock()
	defer p.mu.Unlock()
	go func() {
		p.ch <- 5 // separate goroutine: not under our lock
	}()
}

func (p *pump) suppressed() {
	p.mu.Lock()
	defer p.mu.Unlock()
	//pubsub:allow locksafe -- fixture: bounded handoff kept under the lock on purpose
	p.ch <- 6
}

func (p *pump) blockingWithoutLockIsFine() {
	<-p.ch
	time.Sleep(time.Millisecond)
	p.wg.Wait()
}

func (p *pump) loopForever() {
	for v := range p.ch {
		_ = v
	}
}

func (p *pump) spawnBlockingWorker() {
	// go f() returns immediately: launching a blocking worker is not a
	// blocking operation for the caller, and must not poison this
	// function's classification either.
	go p.loopForever()
}

func (p *pump) lockHeldAcrossLoopBody() {
	p.mu.Lock()
	for i := 0; i < 3; i++ {
		p.ch <- i // want `locksafe: channel send while p\.mu is held`
	}
	p.mu.Unlock()
}

func (p *pump) releasedOnOnePathIsNotHeldAtMerge(b bool) {
	p.mu.Lock()
	if b {
		p.mu.Unlock()
	}
	// Must-analysis: held only on the !b path, so the merge point is not
	// considered under the lock.
	<-p.ch
	if !b {
		p.mu.Unlock()
	}
}

func (p *pump) relockedInSwitchCases(mode int) {
	p.mu.Lock()
	switch mode {
	case 0:
		p.ch <- 7 // want `locksafe: channel send while p\.mu is held`
	case 1:
		p.mu.Unlock()
		<-p.ch // released on this path: no diagnostic
		p.mu.Lock()
	}
	p.wg.Wait() // want `locksafe: call to WaitGroup\.Wait while p\.mu is held`
	p.mu.Unlock()
}

func (p *pump) spawnsWorkerUnderLock() {
	p.mu.Lock()
	go p.loopForever()      // non-blocking launch: no diagnostic
	p.spawnBlockingWorker() // spawner is classified non-blocking: no diagnostic
	p.mu.Unlock()
}

// A *Locked function runs under a lock its caller took: what blocks in
// it is flagged there, once, and not again at the callers that hold the
// lock — nor do they become blocking themselves.
func (p *pump) flushLocked() error {
	_, err := p.conn.Write([]byte("batch")) // want `locksafe: Write on interface value \(potential network I/O\) while the caller's lock is held`
	return err
}

func (p *pump) syncLocked() error {
	return p.flushLocked() // judged inside flushLocked: no diagnostic
}

func (p *pump) callsLockedHelperUnderLock() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.syncLocked() // the caller's lock is this one: no diagnostic
}

// A Cond.Wait releases its own Locker while it waits, so waiting under
// that lock alone is clean; any other lock held across it is not
// released, and the wait is flagged naming that lock.
type gate struct {
	mu    sync.Mutex
	other sync.Mutex
	cond  *sync.Cond
	open  bool
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

func (g *gate) waitUnderOwnLock() {
	g.mu.Lock()
	defer g.mu.Unlock()
	for !g.open {
		g.cond.Wait() // releases g.mu, the only lock held: no diagnostic
	}
}

func (g *gate) waitHoldingAnotherLockToo() {
	g.other.Lock()
	defer g.other.Unlock()
	g.mu.Lock()
	for !g.open {
		g.cond.Wait() // want `locksafe: call to Cond\.Wait while g\.other is held`
	}
	g.mu.Unlock()
}

func (g *gate) waitUnderADifferentLock() {
	g.other.Lock()
	defer g.other.Unlock()
	g.cond.Wait() // want `locksafe: call to Cond\.Wait while g\.other is held`
}

func waitOnLocalCond(mu *sync.Mutex, ready func() bool) {
	c := sync.NewCond(mu)
	mu.Lock()
	for !ready() {
		c.Wait() // releases mu: no diagnostic
	}
	mu.Unlock()
}

// A function that waits on a cond blocks its callers all the same.
func (g *gate) callsWaiterUnderLock(p *pump) {
	p.mu.Lock()
	g.waitUnderOwnLock() // want `locksafe: call to waitUnderOwnLock, which blocks \(calls Cond\.Wait\)`
	p.mu.Unlock()
}
