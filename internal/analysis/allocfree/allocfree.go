// Package allocfree statically proves //pubsub:hotpath functions
// allocation-free by walking the module call graph from each marked
// root and flagging every reachable construct that can hit the heap:
// make/new, escaping composite literals, capturing closures, interface
// boxing of non-pointer values, growing appends of fresh backing
// arrays, map writes, goroutine spawns, string conversions and
// concatenation, and calls to standard-library functions not on a
// small proven-non-allocating allowlist.
//
// Two directives shape the proof. //pubsub:hotpath marks a root: the
// function and everything it reaches must be allocation-free.
// //pubsub:coldpath marks a declared allocation boundary — a callee
// that is by design off the steady-state path (lazy materialization,
// opt-in durability, sampled tracing): the walk notes the edge and
// does not descend. A coldpath mark that no hot walk ever reaches is
// reported, so boundaries cannot rot.
//
// The analyzer deliberately accepts one amortized idiom: append into a
// slice that the caller owns (a parameter, struct field, or local
// rooted at one) is allowed even though a growth step reallocates —
// the module's pools guarantee steady-state capacity. Appends whose
// first argument is a fresh value (nil, a literal, a make call) are
// flagged.
package allocfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer is the allocfree analyzer. It is module-scoped: reachability
// crosses package boundaries.
var Analyzer = &analysis.Analyzer{
	Name:      "allocfree",
	Doc:       "prove //pubsub:hotpath call trees allocation-free",
	RunModule: run,
}

// allowedStdPkgs are standard-library packages every function of which
// is allocation-free on the paths this module uses.
var allowedStdPkgs = map[string]bool{
	"sync/atomic": true,
	"math":        true,
	"math/bits":   true,
	"unsafe":      true,
}

// allowedStdFuncs are individually vetted non-allocating functions and
// methods, keyed by types.Func.FullName.
var allowedStdFuncs = map[string]bool{
	"(*sync.Mutex).Lock":           true,
	"(*sync.Mutex).Unlock":         true,
	"(*sync.Mutex).TryLock":        true,
	"(*sync.RWMutex).Lock":         true,
	"(*sync.RWMutex).Unlock":       true,
	"(*sync.RWMutex).RLock":        true,
	"(*sync.RWMutex).RUnlock":      true,
	"(*sync.Pool).Get":             true, // pool hit; steady-state misses are a pool-sizing bug, not an alloc
	"(*sync.Pool).Put":             true,
	"(*sync.WaitGroup).Add":        true,
	"(*sync.WaitGroup).Done":       true,
	"(*sync.Once).Do":              true,
	"time.Now":                     true, // vDSO clock read, no heap
	"time.Since":                   true,
	"(time.Time).Sub":              true,
	"(time.Time).UnixNano":         true,
	"(time.Time).Add":              true,
	"(time.Time).Before":           true,
	"(time.Time).After":            true,
	"(time.Duration).Seconds":      true,
	"(time.Duration).Nanoseconds":  true,
	"(time.Duration).Milliseconds": true,
	"(time.Duration).Microseconds": true,
	"sort.Search":                  true,
	"sort.SearchFloat64s":          true,
	"sort.SearchInts":              true,
	"errors.Is":                    true,
	"(*errors.errorString).Error":  true,
	// slog Attr constructors build a value in place; no heap until a
	// handler formats them, which only happens on sampled spans.
	"log/slog.Duration": true,
	"log/slog.Int":      true,
	"log/slog.Int64":    true,
	"log/slog.Uint64":   true,
	"log/slog.Float64":  true,
	// Append-style formatters write into the caller's slice through
	// stack scratch space: the module's amortized append idiom, with
	// no allocation of their own.
	"strconv.AppendInt":                        true,
	"strconv.AppendUint":                       true,
	"strconv.AppendFloat":                      true,
	"(*encoding/base64.Encoding).AppendEncode": true,
	"(encoding/binary.bigEndian).PutUint32":    true, // four stores into the caller's slice
}

// allowedGenericStd are generic std functions matched by prefix of
// FullName (instantiations render type args into the name).
var allowedGenericStd = []string{
	"slices.SortFunc", // pdqsort, in place
	"slices.Sort",     // in place (also covers SortStableFunc)
	"slices.BinarySearch",
	// Grows caller-owned storage: the amortized append idiom. A fresh
	// first argument (make, a literal) is flagged where it is built.
	"slices.Grow",
}

type checker struct {
	pass    *analysis.ModulePass
	graph   *analysis.CallGraph
	marks   *analysis.Marks
	infoOf  map[analysis.Target]*types.Info
	visited map[*types.Func]bool
	// reachedCold records coldpath boundaries some hot walk crossed.
	reachedCold map[*types.Func]bool
	// reported dedups (func, position) so shared helpers reached from
	// several roots flag each site once.
	reported map[token.Pos]bool
}

func run(pass *analysis.ModulePass) (any, error) {
	marks := analysis.NewMarks()
	for _, t := range pass.Targets {
		marks.Collect(t.FileSet(), t.ASTFiles(), t.TypesInfo())
	}
	// Mark misuse is reported by the driver's directive pass; here we
	// only consume well-formed marks. (RunAnalyzer-based fixtures still
	// see Bad marks via the directive pseudo-analyzer.)
	c := &checker{
		pass:        pass,
		graph:       analysis.BuildCallGraph(pass.Targets),
		marks:       marks,
		visited:     map[*types.Func]bool{},
		reachedCold: map[*types.Func]bool{},
		reported:    map[token.Pos]bool{},
	}

	// Stable iteration: walk roots in source order.
	var roots []*types.Func
	for fn := range marks.Hot {
		roots = append(roots, fn)
	}
	sortFuncsByPos(roots, marks.Hot)
	for _, root := range roots {
		node := c.graph.FuncOf(root)
		if node == nil {
			continue
		}
		c.walk(node, []string{root.Name()})
	}

	// Coldpath rot: a boundary no hot walk touched guards nothing.
	var colds []*types.Func
	for fn := range marks.Cold {
		colds = append(colds, fn)
	}
	sortFuncsByPos(colds, marks.ColdPos)
	for _, fn := range colds {
		if !c.reachedCold[fn] {
			c.pass.Reportf(marks.ColdPos[fn],
				"allocfree: //pubsub:coldpath on %s is not reached from any //pubsub:hotpath root; delete the mark or mark a caller", fn.Name())
		}
	}
	return nil, nil
}

func sortFuncsByPos(fns []*types.Func, pos map[*types.Func]token.Pos) {
	for i := 1; i < len(fns); i++ {
		for j := i; j > 0 && pos[fns[j]] < pos[fns[j-1]]; j-- {
			fns[j], fns[j-1] = fns[j-1], fns[j]
		}
	}
}

// walk checks fn's body and recurses into module callees. chain is the
// call path from the root, for diagnostics.
func (c *checker) walk(node *analysis.CallNode, chain []string) {
	fn := node.Func
	if c.visited[fn] {
		return
	}
	c.visited[fn] = true
	if node.Decl.Body == nil {
		return
	}
	info := node.Target.TypesInfo()
	c.checkBody(node, info, chain)

	for _, site := range node.Sites {
		if site.InGo {
			continue // the spawn itself is flagged by checkBody; the goroutine body runs off-path
		}
		if site.Dynamic {
			c.report(site.Call.Pos(), chain,
				"call through a function value cannot be proven allocation-free; call a named function or add a //pubsub:coldpath boundary")
			continue
		}
		for _, callee := range site.Callees {
			c.checkCallee(site, callee, chain)
		}
	}
}

func (c *checker) checkCallee(site analysis.CallSite, callee *types.Func, chain []string) {
	if reason, ok := c.marks.Cold[callee]; ok {
		c.reachedCold[callee] = true
		_ = reason
		return // declared boundary: do not descend
	}
	if target := c.graph.FuncOf(callee); target != nil {
		c.walk(target, append(chain[:len(chain):len(chain)], callee.Name()))
		return
	}
	// Outside the module: allow only vetted std functions.
	if c.stdAllowed(callee) {
		return
	}
	name := callee.FullName()
	c.report(site.Call.Pos(), chain,
		fmt.Sprintf("call to %s, which is not on the proven allocation-free allowlist", name))
}

func (c *checker) stdAllowed(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg != nil && allowedStdPkgs[pkg.Path()] {
		return true
	}
	full := fn.FullName()
	if allowedStdFuncs[full] {
		return true
	}
	for _, prefix := range allowedGenericStd {
		if strings.HasPrefix(full, prefix) {
			return true
		}
	}
	return false
}

func (c *checker) report(pos token.Pos, chain []string, msg string) {
	if c.reported[pos] {
		return
	}
	c.reported[pos] = true
	via := strings.Join(chain, " -> ")
	c.pass.Reportf(pos, "allocfree: [%s] %s", via, msg)
}

// checkBody flags allocating constructs lexically inside fn (excluding
// nested function literals, which are judged at their own sites: a
// capturing literal is flagged where it is created).
func (c *checker) checkBody(node *analysis.CallNode, info *types.Info, chain []string) {
	var inspect func(n ast.Node) bool
	inspect = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if capturesVariables(n, info) {
				c.report(n.Pos(), chain, "closure captures variables and escapes to the heap")
			}
			// Non-capturing literals compile to static funcs; their
			// bodies still execute on-path, so check them inline.
			ast.Inspect(n.Body, inspect)
			return false
		case *ast.GoStmt:
			c.report(n.Pos(), chain, "go statement allocates a goroutine")
			return false
		case *ast.CallExpr:
			c.checkCall(n, info, chain)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					c.report(lit.Pos(), chain, "address-taken composite literal escapes to the heap")
				}
			}
		case *ast.CompositeLit:
			if c.escapes(n, info) {
				c.report(n.Pos(), chain, "composite literal allocates backing storage")
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := lhs.(*ast.IndexExpr); ok {
					if _, isMap := typeUnder(info.TypeOf(ix.X)).(*types.Map); isMap {
						c.report(n.Pos(), chain, "map assignment may allocate")
					}
				}
			}
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(info.TypeOf(n.X)) {
				c.report(n.Pos(), chain, "string concatenation allocates")
			}
		}
		return true
	}
	ast.Inspect(node.Decl.Body, inspect)
}

// checkCall flags allocating builtins, conversions, and boxing at one
// call expression. Callee reachability is handled by walk.
func (c *checker) checkCall(call *ast.CallExpr, info *types.Info, chain []string) {
	// Conversions can hide behind any type expression: []byte(s),
	// pkg.T(x), (func())(f).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		c.checkConversion(call, info, chain)
		return
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := info.Uses[fun].(*types.Builtin); ok {
			switch b.Name() {
			case "make", "new":
				c.report(call.Pos(), chain, b.Name()+" allocates")
				return
			case "append":
				if len(call.Args) > 0 && freshSliceExpr(call.Args[0], info) {
					c.report(call.Pos(), chain, "append to a fresh slice allocates its backing array")
				}
				// append into caller-owned storage is the module's
				// amortized-zero idiom: allowed.
			case "print", "println":
				c.report(call.Pos(), chain, b.Name()+" allocates")
				return
			}
		}
	}
	c.checkBoxing(call, info, chain)
}

func (c *checker) checkConversion(call *ast.CallExpr, info *types.Info, chain []string) {
	if len(call.Args) != 1 {
		return
	}
	dst := typeUnder(info.TypeOf(call))
	src := typeUnder(info.TypeOf(call.Args[0]))
	if isStringT(dst) && isByteOrRuneSlice(src) || isByteOrRuneSlice(dst) && isStringT(src) {
		c.report(call.Pos(), chain, "string conversion allocates")
	}
	if _, ok := dst.(*types.Interface); ok {
		if !isPointerLike(src) {
			c.report(call.Pos(), chain, "conversion to interface boxes the value on the heap")
		}
	}
}

// checkBoxing flags arguments whose concrete non-pointer value is
// passed into an interface-typed parameter.
func (c *checker) checkBoxing(call *ast.CallExpr, info *types.Info, chain []string) {
	sig, ok := typeUnder(info.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && call.Ellipsis.IsValid() && i == len(call.Args)-1 {
			continue // f(xs...) passes the slice through, no per-element box
		}
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if sl, ok := typeUnder(last).(*types.Slice); ok {
				pt = sl.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		if pt == nil {
			continue
		}
		if _, isIface := typeUnder(pt).(*types.Interface); !isIface {
			continue
		}
		at := info.TypeOf(arg)
		if at == nil {
			continue
		}
		if _, argIsIface := typeUnder(at).(*types.Interface); argIsIface {
			continue // interface-to-interface: no new box
		}
		if isNilLiteral(arg, info) || isPointerLike(typeUnder(at)) {
			continue
		}
		// Untyped constants that fit in a pointer word may still box;
		// be conservative and flag them too.
		c.report(arg.Pos(), chain, "argument boxes a non-pointer value into an interface")
	}
}

// escapes reports whether the composite literal itself requires heap
// storage. Slice and map literals always allocate their backing; struct
// and array literals are stack values unless their address is taken —
// the &T{...} case is flagged at the parent UnaryExpr in checkBody.
func (c *checker) escapes(lit *ast.CompositeLit, info *types.Info) bool {
	switch typeUnder(info.TypeOf(lit)).(type) {
	case *types.Slice, *types.Map:
		return true
	}
	return false
}

func capturesVariables(lit *ast.FuncLit, info *types.Info) bool {
	declared := map[types.Object]bool{}
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := info.Defs[id]; obj != nil {
				declared[obj] = true
			}
		}
		return true
	})
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := info.Uses[id]
		if obj == nil {
			return true
		}
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if declared[obj] {
			return true
		}
		// Package-level vars aren't captures.
		if v.Parent() != nil && v.Parent().Parent() == types.Universe {
			return true
		}
		if v.Pkg() != nil && v.Pkg().Scope() == v.Parent() {
			return true
		}
		captures = true
		return false
	})
	return captures
}

func freshSliceExpr(e ast.Expr, info *types.Info) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name == "nil"
	case *ast.CompositeLit:
		return true
	case *ast.CallExpr:
		if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "make" {
				return true
			}
		}
		// A conversion of a fresh value, []T(nil), is fresh.
		if len(e.Args) == 1 && info.Types[e.Fun].IsType() {
			return freshSliceExpr(e.Args[0], info)
		}
	}
	return false
}

func typeUnder(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	return t.Underlying()
}

func isString(t types.Type) bool { return isStringT(typeUnder(t)) }

func isStringT(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Uint8 || b.Kind() == types.Rune || b.Kind() == types.Int32)
}

// isPointerLike: values already one pointer word wide do not box.
func isPointerLike(t types.Type) bool {
	switch t := t.(type) {
	case *types.Pointer, *types.Chan, *types.Signature:
		return true
	case *types.Basic:
		return t.Kind() == types.UnsafePointer || t.Kind() == types.UntypedNil
	case *types.Named:
		return isPointerLike(t.Underlying())
	}
	return false
}

func isNilLiteral(e ast.Expr, info *types.Info) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil" && info.Uses[id] == types.Universe.Lookup("nil")
}
