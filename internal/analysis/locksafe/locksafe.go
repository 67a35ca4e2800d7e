// Package locksafe flags blocking operations performed while a
// sync.Mutex or sync.RWMutex is held. In the broker and wire layers a
// lock held across a channel operation, network write or sleep turns
// one slow peer into a broker-wide stall — the classic failure mode of
// a concurrent pub-sub core.
//
// The analysis solves a forward must-dataflow problem over each
// function's CFG (analysis.BuildCFG + analysis.Solve): the abstract
// state is the set of locks held on every path to a program point, with
// set intersection as the join, so a lock released on either arm of a
// branch is not considered held after the merge. A package-level
// fixpoint classifies same-package functions that block (directly or
// transitively) so calls to them are flagged at the call site.
// Blocking operations are:
//
//   - channel send or receive outside a select with a default clause
//   - select without a default clause
//   - range over a channel
//   - time.Sleep, (*sync.WaitGroup).Wait, and (*sync.Cond).Wait while
//     any lock but the cond's own Locker is held: Wait releases that
//     one, so waiting under it alone is clean. The Locker is found
//     where the cond is made, x.c = sync.NewCond(&x.mu) or
//     c := sync.NewCond(&mu), in the same package; a cond made any
//     other way counts as blocking under every lock.
//   - Read/Write/ReadFrom/WriteTo on interface values (io.Reader,
//     io.Writer, net.Conn, ...) and io.ReadFull/io.Copy/io.CopyN:
//     behind an interface may sit a network peer
//   - calls to same-package functions classified as blocking
//
// Function literals are analyzed as separate functions with an empty
// lock set: a goroutine does not hold its creator's locks. A deferred
// Unlock keeps the lock held to the end of the function, as at runtime.
//
// A function whose name ends in "Locked" is, by the repository's
// convention, only called with its owner's lock held: it is analyzed
// with that lock held from entry, so what blocks inside it is flagged
// (or waived) once, in place, and not again at each of its callers.
//
// Intentional, bounded waits under a lock are annotated with
// //pubsub:allow locksafe -- reason.
package locksafe

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"math"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags blocking operations while a mutex is held.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc: "flags channel operations, selects, sleeps, waits and interface " +
		"I/O performed while a sync.Mutex/RWMutex is held",
	Run: run,
}

// lock/unlock method sets, identified by types.Func.FullName so that
// embedded (promoted) mutexes are matched too.
var (
	lockMethods = map[string]bool{
		"(*sync.Mutex).Lock":    true,
		"(*sync.RWMutex).Lock":  true,
		"(*sync.RWMutex).RLock": true,
	}
	unlockMethods = map[string]bool{
		"(*sync.Mutex).Unlock":    true,
		"(*sync.RWMutex).Unlock":  true,
		"(*sync.RWMutex).RUnlock": true,
	}
	// blockingStdCalls block by name, wherever they are called from.
	blockingStdCalls = map[string]string{
		"time.Sleep":             "time.Sleep",
		"(*sync.WaitGroup).Wait": "WaitGroup.Wait",
		"(*sync.Cond).Wait":      "Cond.Wait",
		"io.ReadFull":            "io.ReadFull",
		"io.ReadAll":             "io.ReadAll",
		"io.Copy":                "io.Copy",
		"io.CopyN":               "io.CopyN",
	}
	// blockingIfaceMethods are method names that count as blocking when
	// invoked on an interface value: the dynamic type may be a socket.
	blockingIfaceMethods = map[string]bool{
		"Read":     true,
		"Write":    true,
		"ReadFrom": true,
		"WriteTo":  true,
	}
)

type checker struct {
	pass *analysis.Pass
	// blockingFns maps same-package functions (by object) to a short
	// description of why they block, for call-site messages.
	blockingFns map[*types.Func]string
	decls       map[*types.Func]*ast.FuncDecl
	// condLocks maps a sync.Cond field or variable to its Locker.
	condLocks map[types.Object]condLock
}

// condLock is a cond's Locker as a lock-set key. For a cond held in a
// field it is relative to the same base: x.c = sync.NewCond(&x.mu)
// gives ".mu", so s.c.Wait() releases "s.mu". For a variable it is the
// lock expression itself.
type condLock struct {
	rel  bool
	expr string
}

func run(pass *analysis.Pass) (any, error) {
	c := &checker{
		pass:        pass,
		blockingFns: map[*types.Func]string{},
		decls:       map[*types.Func]*ast.FuncDecl{},
		condLocks:   map[types.Object]condLock{},
	}
	for _, f := range pass.Files {
		c.collectConds(f)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.decls[obj] = fd
			}
		}
	}

	// Fixpoint: seed with directly blocking functions, then propagate
	// through same-package calls until stable. A *Locked function is
	// judged in place and never classified.
	for obj, fd := range c.decls {
		if callerHolds(obj) {
			continue
		}
		if why := c.directlyBlocking(fd.Body); why != "" {
			c.blockingFns[obj] = why
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, fd := range c.decls {
			if _, done := c.blockingFns[obj]; done || callerHolds(obj) {
				continue
			}
			if callee, why := c.callsBlockingFn(fd.Body); callee != nil {
				c.blockingFns[obj] = fmt.Sprintf("calls %s (%s)", callee.Name(), why)
				changed = true
			}
		}
	}

	for obj, fd := range c.decls {
		entry := lockSet{}
		if callerHolds(obj) {
			entry["the caller's lock"] = fd.Pos()
		}
		c.checkFunc(fd.Body, entry)
	}
	return nil, nil
}

// callerHolds reports whether fn is named as running under a lock its
// caller took.
func callerHolds(fn *types.Func) bool { return strings.HasSuffix(fn.Name(), "Locked") }

// lockSet tracks which mutexes are held, keyed by the printed receiver
// expression (an approximation that works for the field- and
// variable-shaped receivers this codebase uses).
type lockSet map[string]token.Pos

// flow is the must-hold dataflow problem: a lock is in the state only
// if it is held on every path, so join is set intersection.
func (c *checker) flow(entry lockSet) *analysis.Flow[lockSet] {
	return &analysis.Flow[lockSet]{
		Entry:    entry,
		Transfer: c.transfer,
		Join:     intersect,
		Equal: func(a, b lockSet) bool {
			if len(a) != len(b) {
				return false
			}
			for k := range a {
				if _, ok := b[k]; !ok {
					return false
				}
			}
			return true
		},
		Clone: func(s lockSet) lockSet {
			out := make(lockSet, len(s))
			for k, v := range s {
				out[k] = v
			}
			return out
		},
	}
}

// checkFunc solves the lock-set dataflow over one function body, entered
// with the locks in entry held, and replays each reached block to flag
// blocking operations under a lock. Function literals encountered
// during the replay recurse here with their own empty entry set.
func (c *checker) checkFunc(body *ast.BlockStmt, entry lockSet) {
	comm := commStmts(body)
	g := analysis.BuildCFG(body)
	f := c.flow(entry)
	sol := analysis.Solve(g, f)
	for _, b := range g.Blocks {
		if !sol.Reached[b.Index] {
			continue
		}
		s := f.Clone(sol.In[b.Index])
		for _, n := range b.Nodes {
			c.scanNode(n, s, comm)
			s = f.Transfer(s, n)
		}
	}
}

// commStmts collects the comm statements of every select in the body.
// The CFG places them in their clause's block, but the blocking happens
// at the select header, so the replay must not flag their channel ops.
func commStmts(body *ast.BlockStmt) map[ast.Node]bool {
	comm := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm != nil {
					comm[cc.Comm] = true
				}
			}
		}
		return true
	})
	return comm
}

// transfer updates the lock set across one CFG node. Deferred calls run
// at function exit (a deferred Unlock keeps the lock held here), go
// statements run concurrently, and a select header's comm operations
// are handled in their clause blocks.
func (c *checker) transfer(s lockSet, n ast.Node) lockSet {
	switch n := n.(type) {
	case *ast.DeferStmt, *ast.GoStmt, *ast.SelectStmt:
		return s
	case *ast.RangeStmt:
		// Only the ranged-over expression evaluates at the header; the
		// body's lock ops live in the body's own blocks.
		return c.applyLockOps(n.X, s)
	default:
		return c.applyLockOps(n, s)
	}
}

// scanNode flags blocking operations in one CFG node given the lock set
// held before it executes.
func (c *checker) scanNode(n ast.Node, held lockSet, comm map[ast.Node]bool) {
	if comm[n] {
		// The comm ops of a select are non-blocking (the select header is
		// where blocking happens); only scan for calls and literals.
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				c.checkFunc(m.Body, lockSet{})
				return false
			case *ast.CallExpr:
				c.call(m, held)
			}
			return true
		})
		return
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		// Deferred calls run outside any critical section we can see;
		// analyze their literals separately.
		c.funcLitsIn(n.Call)
	case *ast.GoStmt:
		// The goroutine runs concurrently and does not hold our locks.
		c.funcLitsIn(n.Call)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cl := range n.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			c.flagIfHeld(n.Pos(), "select without default", held)
		}
		// Comm ops and clause bodies are separate CFG blocks.
	case *ast.RangeStmt:
		if t := c.pass.TypeOf(n.X); t != nil {
			if _, ok := t.Underlying().(*types.Chan); ok {
				c.flagIfHeld(n.Pos(), "range over channel", held)
			}
		}
		c.scanGeneric(n.X, held)
	default:
		c.scanGeneric(n, held)
	}
}

// scanGeneric walks a simple statement or expression node for blocking
// operations, recursing into function literals with an empty lock set.
func (c *checker) scanGeneric(n ast.Node, held lockSet) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			c.checkFunc(m.Body, lockSet{})
			return false
		case *ast.SendStmt:
			c.flagIfHeld(m.Pos(), "channel send", held)
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				c.flagIfHeld(m.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			c.call(m, held)
		}
		return true
	})
}

// call flags a single call expression if its callee blocks. A
// Cond.Wait is judged against the locks held besides the one it
// releases.
func (c *checker) call(call *ast.CallExpr, held lockSet) {
	if len(held) == 0 {
		return
	}
	if own, ok := c.condWaitLock(call); ok {
		if _, holds := held[own]; holds {
			rest := make(lockSet, len(held))
			for k, v := range held {
				if k != own {
					rest[k] = v
				}
			}
			held = rest
		}
	}
	if why := c.blockingCallDesc(call); why != "" {
		c.flagIfHeld(call.Pos(), why, held)
	}
}

// collectConds records the Locker of every cond made by an assignment
// from sync.NewCond in f.
func (c *checker) collectConds(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				continue
			}
			if fn := c.calleeFunc(call); fn == nil || fn.FullName() != "sync.NewCond" {
				continue
			}
			locker := ast.Unparen(call.Args[0])
			if u, ok := locker.(*ast.UnaryExpr); ok && u.Op == token.AND {
				locker = u.X
			}
			expr := exprString(c.pass.Fset, locker)
			switch lhs := ast.Unparen(as.Lhs[i]).(type) {
			case *ast.SelectorExpr:
				if obj := c.pass.TypesInfo.Uses[lhs.Sel]; obj != nil {
					base := exprString(c.pass.Fset, lhs.X)
					if rel, ok := strings.CutPrefix(expr, base); ok && strings.HasPrefix(rel, ".") {
						c.condLocks[obj] = condLock{rel: true, expr: rel}
					} else {
						c.condLocks[obj] = condLock{expr: expr}
					}
				}
			case *ast.Ident:
				obj := c.pass.TypesInfo.Defs[lhs]
				if obj == nil {
					obj = c.pass.TypesInfo.Uses[lhs]
				}
				if obj != nil {
					c.condLocks[obj] = condLock{expr: expr}
				}
			}
		}
		return true
	})
}

// condWaitLock returns the lock-set key of the Locker a Cond.Wait call
// releases, if the call is one and its cond's Locker is known.
func (c *checker) condWaitLock(call *ast.CallExpr) (string, bool) {
	fn := c.calleeFunc(call)
	if fn == nil || fn.FullName() != "(*sync.Cond).Wait" {
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		cl, ok := c.condLocks[c.pass.TypesInfo.Uses[recv.Sel]]
		if !ok {
			return "", false
		}
		if cl.rel {
			return exprString(c.pass.Fset, recv.X) + cl.expr, true
		}
		return cl.expr, true
	case *ast.Ident:
		cl, ok := c.condLocks[c.pass.TypesInfo.Uses[recv]]
		return cl.expr, ok && !cl.rel
	}
	return "", false
}

// blockingCallDesc classifies one call as blocking, returning a human
// description or "".
func (c *checker) blockingCallDesc(call *ast.CallExpr) string {
	fn := c.calleeFunc(call)
	if fn == nil {
		return ""
	}
	if desc, ok := blockingStdCalls[fn.FullName()]; ok {
		return "call to " + desc
	}
	if blockingIfaceMethods[fn.Name()] {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if t := c.pass.TypeOf(sel.X); t != nil {
				if _, ok := t.Underlying().(*types.Interface); ok {
					return fmt.Sprintf("%s on interface value (potential network I/O)", fn.Name())
				}
			}
		}
	}
	if fn.Pkg() == c.pass.Pkg {
		if why, ok := c.blockingFns[fn]; ok {
			return fmt.Sprintf("call to %s, which blocks (%s)", fn.Name(), why)
		}
	}
	return ""
}

// directlyBlocking reports why a function body blocks on its own (not
// via same-package calls), or "".
func (c *checker) directlyBlocking(body *ast.BlockStmt) string {
	selectDefaults := map[*ast.SelectStmt]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.SelectStmt); ok {
			for _, cl := range s.Body.List {
				if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
					selectDefaults[s] = true
				}
			}
		}
		return true
	})
	var walk func(n ast.Node) string
	walk = func(n ast.Node) string {
		found := ""
		ast.Inspect(n, func(m ast.Node) bool {
			if found != "" {
				return false
			}
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // separate function
			case *ast.GoStmt:
				// Launching a goroutine is non-blocking for the caller;
				// the spawned function runs with its own (empty) lock set.
				return false
			case *ast.SelectStmt:
				if !selectDefaults[m] {
					found = "contains select without default"
					return false
				}
				// Non-blocking select: comm ops are fine, bodies still scanned.
				for _, cl := range m.Body.List {
					if cc, ok := cl.(*ast.CommClause); ok {
						for _, b := range cc.Body {
							if f := walk(b); f != "" {
								found = f
								return false
							}
						}
					}
				}
				return false
			case *ast.SendStmt:
				found = "contains channel send"
				return false
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					found = "contains channel receive"
					return false
				}
			case *ast.RangeStmt:
				if t := c.pass.TypeOf(m.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						found = "ranges over a channel"
						return false
					}
				}
			case *ast.CallExpr:
				fn := c.calleeFunc(m)
				if fn == nil {
					return true
				}
				if desc, ok := blockingStdCalls[fn.FullName()]; ok {
					found = "calls " + desc
					return false
				}
				if blockingIfaceMethods[fn.Name()] {
					if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
						if t := c.pass.TypeOf(sel.X); t != nil {
							if _, ok := t.Underlying().(*types.Interface); ok {
								found = "performs interface I/O"
								return false
							}
						}
					}
				}
			}
			return true
		})
		return found
	}
	return walk(body)
}

// callsBlockingFn finds the first call (outside function literals) to a
// same-package function already classified as blocking.
func (c *checker) callsBlockingFn(body *ast.BlockStmt) (*types.Func, string) {
	var callee *types.Func
	var why string
	ast.Inspect(body, func(n ast.Node) bool {
		if callee != nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if _, ok := n.(*ast.GoStmt); ok {
			// go f() returns immediately even if f blocks.
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := c.calleeFunc(call)
		if fn == nil || fn.Pkg() != c.pass.Pkg {
			return true
		}
		if w, ok := c.blockingFns[fn]; ok {
			callee, why = fn, w
		}
		return true
	})
	return callee, why
}

// funcLitsIn analyzes function literals appearing in a call's arguments
// or callee position as independent functions.
func (c *checker) funcLitsIn(call *ast.CallExpr) {
	ast.Inspect(call, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			c.checkFunc(lit.Body, lockSet{})
			return false
		}
		return true
	})
}

// applyLockOps updates the lock set for any Lock/Unlock calls in n
// (sequentially, left to right as they appear). Function literals are
// separate functions; their lock ops do not affect this set.
func (c *checker) applyLockOps(n ast.Node, held lockSet) lockSet {
	out := held
	mutated := false
	mutable := func() lockSet {
		if !mutated {
			cp := make(lockSet, len(out))
			for k, v := range out {
				cp[k] = v
			}
			out = cp
			mutated = true
		}
		return out
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := c.calleeFunc(call)
		if fn == nil {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		name := fn.FullName()
		switch {
		case lockMethods[name]:
			mutable()[exprString(c.pass.Fset, sel.X)] = call.Pos()
		case unlockMethods[name]:
			delete(mutable(), exprString(c.pass.Fset, sel.X))
		}
		return true
	})
	return out
}

func (c *checker) calleeFunc(call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := c.pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// flagIfHeld reports op at pos if any lock is held, naming the
// longest-held lock for the message.
func (c *checker) flagIfHeld(pos token.Pos, op string, held lockSet) {
	if len(held) == 0 {
		return
	}
	var name string
	at := token.Pos(math.MaxInt)
	for k, p := range held {
		if p < at {
			name, at = k, p
		}
	}
	c.pass.Reportf(pos,
		"locksafe: %s while %s is held (locked at %s); release the lock first, restructure, or annotate an intentional bounded wait with //pubsub:allow locksafe",
		op, name, c.pass.Fset.Position(at))
}

func intersect(a, b lockSet) lockSet {
	out := lockSet{}
	for k, v := range a {
		if _, ok := b[k]; ok {
			out[k] = v
		}
	}
	return out
}

func exprString(fset *token.FileSet, e ast.Expr) string {
	var sb strings.Builder
	if err := printer.Fprint(&sb, fset, e); err != nil {
		return "<expr>"
	}
	return sb.String()
}
