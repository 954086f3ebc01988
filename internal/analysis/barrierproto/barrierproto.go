// Package barrierproto enforces the parked-worker protocol of structs marked
// //hepccl:pool — the persistent pool of internal/tileccl (barrier-per-event
// workers), its one subject since the server's lanes became channels. The
// protocol's correctness rests on structural facts the race detector can
// only probe and a reviewer easily misses:
//
//   - a //hepccl:wake channel must be buffered (make with a capacity), and
//     every send on it is either inside a select with a default clause (the
//     notify idiom: never block a producer on a parked consumer) or inside a
//     counted barrier loop whose bound also counts a //hepccl:done receive
//     loop in the same function (one token out, one token back, per worker);
//   - a //hepccl:done send sits inside the worker's `for range wake` loop, so
//     tokens returned can never exceed tokens received;
//   - a //hepccl:cursor field is a sync/atomic type (the work-stealing cursor
//     is the one word workers race on) and is never overwritten whole;
//   - pool channels are closed only inside the pool's Close method, and no
//     send on a pool channel appears after a Close call in the same function
//     — a send on a closed channel is a panic, not a missed wakeup.
//
// The checks are lexical and path-insensitive: source order approximates
// reachability, which is exact for the straight-line construct-use-close
// lifecycle these pools have.
package barrierproto

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/wustl-adapt/hepccl/internal/analysis/framework"
	"github.com/wustl-adapt/hepccl/internal/analysis/hepcclmark"
	"github.com/wustl-adapt/hepccl/internal/analysis/load"
)

// Analyzer is the barrierproto checker.
var Analyzer = &framework.Analyzer{
	Name: "barrierproto",
	Doc:  "enforce the wake/done/cursor protocol of //hepccl:pool worker pools",
	Run:  run,
}

type fieldClass int

const (
	classNone fieldClass = iota
	classWake
	classDone
	classCursor
)

type fieldMeta struct {
	class      fieldClass
	structName string
}

func run(pass *framework.Pass) error {
	marks := hepcclmark.Collect(pass.Prog)
	fields := map[*types.Var]fieldMeta{}
	pools := map[string]bool{} // struct names marked //hepccl:pool

	for _, pkg := range pass.Prog.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				gd, ok := d.(*ast.GenDecl)
				if !ok || gd.Tok != token.TYPE {
					continue
				}
				for _, spec := range gd.Specs {
					ts := spec.(*ast.TypeSpec)
					st, ok := ts.Type.(*ast.StructType)
					if !ok {
						continue
					}
					if !marks.DocMarked(gd.Doc, hepcclmark.Pool) && !marks.DocMarked(ts.Doc, hepcclmark.Pool) {
						continue
					}
					pools[ts.Name.Name] = true
					classify(pass, pkg, marks, ts.Name.Name, st, fields)
				}
			}
		}
	}
	if len(pools) == 0 {
		return nil
	}
	for _, pkg := range pass.Prog.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					checkFunc(pass, pkg, fd, fields)
				}
				checkMakes(pass, pkg, d, fields)
			}
		}
	}
	return nil
}

// classify records each directive-marked field of a pool struct and checks
// the cursor's type up front.
func classify(pass *framework.Pass, pkg *load.Package, marks *hepcclmark.Marks, structName string, st *ast.StructType, fields map[*types.Var]fieldMeta) {
	for _, f := range st.Fields.List {
		class := classNone
		switch {
		case fieldMarked(marks, f, hepcclmark.Wake):
			class = classWake
		case fieldMarked(marks, f, hepcclmark.Done):
			class = classDone
		case fieldMarked(marks, f, hepcclmark.Cursor):
			class = classCursor
			if !isAtomicType(pkg.Info.Types[f.Type].Type) {
				pass.Reportf(f.Pos(), "pool cursor field of %s is not a sync/atomic type: workers race on it", structName)
			}
		default:
			continue
		}
		for _, name := range f.Names {
			if v, ok := pkg.Info.Defs[name].(*types.Var); ok {
				fields[v.Origin()] = fieldMeta{class: class, structName: structName}
			}
		}
	}
}

// fieldMarked checks only the field's own doc and trailing comment — the
// line-above rule would let the previous field's trailing directive leak
// onto this one.
func fieldMarked(marks *hepcclmark.Marks, f *ast.Field, kind string) bool {
	return marks.DocMarked(f.Doc, kind) || marks.DocMarked(f.Comment, kind)
}

// isAtomicType reports whether t is one of sync/atomic's typed atomics.
func isAtomicType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}

// fieldOf resolves an expression to a tracked pool field, or nil.
func fieldOf(info *types.Info, fields map[*types.Var]fieldMeta, e ast.Expr) (*types.Var, fieldMeta) {
	se, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return nil, fieldMeta{}
	}
	sel, ok := info.Selections[se]
	if !ok || sel.Kind() != types.FieldVal {
		return nil, fieldMeta{}
	}
	v, ok := sel.Obj().(*types.Var)
	if !ok {
		return nil, fieldMeta{}
	}
	meta, tracked := fields[v.Origin()]
	if !tracked {
		return nil, fieldMeta{}
	}
	return v, meta
}

// checkMakes flags unbuffered construction of pool channels, in assignments
// and in composite literals.
func checkMakes(pass *framework.Pass, pkg *load.Package, root ast.Node, fields map[*types.Var]fieldMeta) {
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				if v, meta := fieldOf(pkg.Info, fields, lhs); v != nil && (meta.class == classWake || meta.class == classDone) {
					checkMake(pass, pkg, n.Rhs[i], v, meta)
				}
			}
		case *ast.CompositeLit:
			st, ok := pkg.Info.Types[n].Type.Underlying().(*types.Struct)
			if !ok {
				return true
			}
			for _, el := range n.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				key, ok := kv.Key.(*ast.Ident)
				if !ok {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Name() != key.Name {
						continue
					}
					if meta, tracked := fields[f.Origin()]; tracked && (meta.class == classWake || meta.class == classDone) {
						checkMake(pass, pkg, kv.Value, f, meta)
					}
				}
			}
		}
		return true
	})
}

// checkMake requires a pool channel's make to carry a nonzero capacity.
func checkMake(pass *framework.Pass, pkg *load.Package, rhs ast.Expr, v *types.Var, meta fieldMeta) {
	ce, ok := ast.Unparen(rhs).(*ast.CallExpr)
	if !ok {
		return
	}
	if id, ok := ce.Fun.(*ast.Ident); !ok || id.Name != "make" {
		return
	}
	if len(ce.Args) < 2 {
		pass.Reportf(rhs.Pos(), "pool channel %s.%s made unbuffered: a send would block or drop the producer onto the consumer's schedule", meta.structName, v.Name())
		return
	}
	if tv := pkg.Info.Types[ce.Args[1]]; tv.Value != nil && tv.Value.String() == "0" {
		pass.Reportf(rhs.Pos(), "pool channel %s.%s made with zero capacity", meta.structName, v.Name())
	}
}

// checkFunc walks one function, with parent links, validating sends,
// receives, closes, and cursor writes against the protocol.
func checkFunc(pass *framework.Pass, pkg *load.Package, fd *ast.FuncDecl, fields map[*types.Var]fieldMeta) {
	parents := map[ast.Node]ast.Node{}
	var walk func(n, parent ast.Node)
	var nodes []ast.Node
	walk = func(n, parent ast.Node) {
		parents[n] = parent
		nodes = append(nodes, n)
		for _, child := range children(n) {
			walk(child, n)
		}
	}
	walk(fd, nil)

	// closePos is the earliest point in this function after which a pool
	// channel is closed (directly or via a Close method call on a pool).
	closePos := token.Pos(0)
	for _, n := range nodes {
		ce, ok := n.(*ast.CallExpr)
		if !ok {
			continue
		}
		if id, ok := ce.Fun.(*ast.Ident); ok && id.Name == "close" && len(ce.Args) == 1 {
			if v, meta := fieldOf(pkg.Info, fields, ce.Args[0]); v != nil {
				if fd.Name.Name != "Close" {
					pass.Reportf(ce.Pos(), "pool channel %s.%s closed outside the pool's Close method", meta.structName, v.Name())
				}
				if closePos == 0 || ce.Pos() < closePos {
					closePos = ce.Pos()
				}
			}
			continue
		}
		if se, ok := ce.Fun.(*ast.SelectorExpr); ok && se.Sel.Name == "Close" {
			if t := pkg.Info.Types[se.X].Type; t != nil && isPoolType(t, fields) {
				if closePos == 0 || ce.Pos() < closePos {
					closePos = ce.Pos()
				}
			}
		}
	}

	for _, n := range nodes {
		switch n := n.(type) {
		case *ast.SendStmt:
			v, meta := fieldOf(pkg.Info, fields, n.Chan)
			if v == nil {
				continue
			}
			if closePos != 0 && n.Pos() > closePos {
				pass.Reportf(n.Pos(), "send on pool channel %s.%s after Close in the same function: a closed-channel send panics", meta.structName, v.Name())
			}
			switch meta.class {
			case classWake:
				if !inSelectDefault(n, parents) && !inMatchedBarrierLoop(pkg, fd, n, parents, fields, meta) {
					pass.Reportf(n.Pos(), "wake channel %s.%s sent outside select/default and outside a counted barrier loop matched by a done-receive loop", meta.structName, v.Name())
				}
			case classDone:
				if !inWakeRange(pkg, n, parents, fields) {
					pass.Reportf(n.Pos(), "done channel %s.%s sent outside the worker's `for range wake` loop: tokens returned could exceed tokens received", meta.structName, v.Name())
				}
			}
		case *ast.SelectorExpr:
			sel, ok := pkg.Info.Selections[n]
			if !ok || sel.Kind() != types.FieldVal {
				continue
			}
			v, ok := sel.Obj().(*types.Var)
			if !ok {
				continue
			}
			meta, tracked := fields[v.Origin()]
			if !tracked || meta.class != classCursor {
				continue
			}
			if isWrite(n, parents) {
				pass.Reportf(n.Pos(), "pool cursor %s.%s overwritten with a plain assignment; use its sync/atomic methods", meta.structName, v.Name())
			}
		}
	}
}

// isPoolType reports whether t (possibly a pointer) is a pool struct type.
func isPoolType(t types.Type, fields map[*types.Var]fieldMeta) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	st, ok := n.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < st.NumFields(); i++ {
		if _, tracked := fields[st.Field(i).Origin()]; tracked {
			return true
		}
	}
	return false
}

// inSelectDefault reports whether the send is a select case in a select that
// also has a default clause — the non-blocking notify idiom.
func inSelectDefault(send *ast.SendStmt, parents map[ast.Node]ast.Node) bool {
	cc, ok := parents[send].(*ast.CommClause)
	if !ok || cc.Comm != ast.Stmt(send) {
		return false
	}
	sel, ok := parents[parents[cc]].(*ast.SelectStmt) // CommClause -> BlockStmt -> SelectStmt
	if !ok {
		return false
	}
	for _, c := range sel.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// inMatchedBarrierLoop reports whether the wake send sits in a counted loop
// (`for i := 0; i < B; i++`) and the same function has a loop with the same
// bound B receiving from the pool's done channel — one token back per token
// out.
func inMatchedBarrierLoop(pkg *load.Package, fd *ast.FuncDecl, send *ast.SendStmt, parents map[ast.Node]ast.Node, fields map[*types.Var]fieldMeta, meta fieldMeta) bool {
	bound := ""
	for n := parents[send]; n != nil; n = parents[n] {
		if f, ok := n.(*ast.ForStmt); ok {
			bound = loopBound(f)
			break
		}
	}
	if bound == "" {
		return false
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		f, ok := n.(*ast.ForStmt)
		if !ok || found || loopBound(f) != bound {
			return true
		}
		ast.Inspect(f.Body, func(m ast.Node) bool {
			ue, ok := m.(*ast.UnaryExpr)
			if !ok || ue.Op != token.ARROW {
				return true
			}
			if v, dm := fieldOf(pkg.Info, fields, ue.X); v != nil && dm.class == classDone && dm.structName == meta.structName {
				found = true
			}
			return !found
		})
		return !found
	})
	return found
}

// loopBound extracts the upper-bound expression text of a counted loop
// (`i < B`), or "".
func loopBound(f *ast.ForStmt) string {
	be, ok := f.Cond.(*ast.BinaryExpr)
	if !ok || be.Op != token.LSS {
		return ""
	}
	return types.ExprString(be.Y)
}

// inWakeRange reports whether the done send sits inside a `for range wake`
// over a wake channel of the same pool.
func inWakeRange(pkg *load.Package, send *ast.SendStmt, parents map[ast.Node]ast.Node, fields map[*types.Var]fieldMeta) bool {
	for n := parents[send]; n != nil; n = parents[n] {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			continue
		}
		if v, meta := fieldOf(pkg.Info, fields, rs.X); v != nil && meta.class == classWake {
			return true
		}
	}
	return false
}

// isWrite reports whether the selector is an assignment target or inc/dec
// operand.
func isWrite(se *ast.SelectorExpr, parents map[ast.Node]ast.Node) bool {
	switch p := parents[se].(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == ast.Expr(se) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return p.X == ast.Expr(se)
	}
	return false
}

func children(n ast.Node) []ast.Node {
	var out []ast.Node
	first := true
	ast.Inspect(n, func(c ast.Node) bool {
		if first {
			first = false
			return true
		}
		if c != nil {
			out = append(out, c)
		}
		return false
	})
	return out
}
