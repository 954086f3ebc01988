// Package hepcclmark parses the //hepccl: source directives that declare
// the serving spine's hot-path invariants, and computes the hot-function
// closure the hotpathalloc and nofloat analyzers check.
//
// Directives:
//
//	//hepccl:hotpath    (func doc)   function must be allocation- and
//	                                 float-free, along with everything it
//	                                 statically calls within the module
//	//hepccl:coldpath   (func doc or statement) the function or statement is
//	                                 off the hot path (error branch, panic
//	                                 guard) and is exempt from hot-path rules
//	//hepccl:amortized  (statement)  the statement allocates only until a
//	                                 high-water mark (scratch growth) and is
//	                                 exempt from allocation rules
//	//hepccl:checked    (statement)  the statement's bounds/nil checks are
//	                                 justified by an invariant the compiler
//	                                 cannot see; boundscheck exempts its span
//	//hepccl:pool       (type doc)   struct is a parked-worker pool;
//	                                 barrierproto enforces its wake/done/
//	                                 cursor protocol
//	//hepccl:wake       (field)      pool wake channel: buffered, sent only
//	                                 via select/default or a counted barrier
//	                                 loop, closed only by Close
//	//hepccl:done       (field)      pool done channel: one token back per
//	                                 woken worker, sent from the wake-receive
//	                                 loop, received by a matching counted loop
//	//hepccl:cursor     (field)      pool work cursor: a sync/atomic type,
//	                                 never overwritten whole
//	//hepccl:accounted  (field)      counter in the gateway accounting
//	                                 identity; acctproto requires the acctmu
//	                                 mutex held at every mutation
//	//hepccl:acctmu     (field)      the mutex guarding accounted-counter
//	                                 mutations (the charge/settle mutex)
//
// A statement directive sits on the statement's first line or the line
// directly above it.
package hepcclmark

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"github.com/wustl-adapt/hepccl/internal/analysis/load"
)

// Directive kinds.
const (
	Hotpath   = "hotpath"
	Coldpath  = "coldpath"
	Amortized = "amortized"
	Checked   = "checked"
	Pool      = "pool"
	Wake      = "wake"
	Done      = "done"
	Cursor    = "cursor"
	Accounted = "accounted"
	AcctMu    = "acctmu"
)

// Kinds lists every directive verb the suite understands; marklint reports
// anything else as a typo rather than silently ignoring it.
var Kinds = []string{
	Hotpath, Coldpath, Amortized, Checked,
	Pool, Wake, Done, Cursor, Accounted, AcctMu,
}

const prefix = "//hepccl:"

// Marks indexes every //hepccl: directive in a program by file and line.
type Marks struct {
	fset  *token.FileSet
	lines map[string]map[int][]string
}

// Collect scans every comment in the program for directives.
func Collect(prog *load.Program) *Marks {
	m := &Marks{fset: prog.Fset, lines: map[string]map[int][]string{}}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					kind := parseKind(c.Text)
					if kind == "" {
						continue
					}
					pos := prog.Fset.Position(c.Pos())
					fl := m.lines[pos.Filename]
					if fl == nil {
						fl = map[int][]string{}
						m.lines[pos.Filename] = fl
					}
					fl[pos.Line] = append(fl[pos.Line], kind)
				}
			}
		}
	}
	return m
}

// ParseKind extracts the directive kind from one comment line, or "" when
// the comment is not a //hepccl: directive. The verb is everything up to the
// first space or tab, so unknown verbs come back verbatim for marklint.
func ParseKind(text string) string { return parseKind(text) }

// parseKind extracts the directive kind from one comment line, or "".
func parseKind(text string) string {
	if !strings.HasPrefix(text, prefix) {
		return ""
	}
	kind := strings.TrimPrefix(text, prefix)
	if i := strings.IndexAny(kind, " \t"); i >= 0 {
		kind = kind[:i]
	}
	return kind
}

// LineMarked reports whether the file has a kind directive on the given line
// or the line directly above it — the statement-directive placement rule,
// applied to a bare source position (the shelled-compiler cross-checks have
// positions, not AST nodes).
func (m *Marks) LineMarked(file string, line int, kind string) bool {
	return m.has(file, line, kind) || m.has(file, line-1, kind)
}

// has reports whether the file has a kind directive on the given line.
func (m *Marks) has(file string, line int, kind string) bool {
	for _, k := range m.lines[file][line] {
		if k == kind {
			return true
		}
	}
	return false
}

// NodeMarked reports whether a kind directive sits on the node's first line
// or the line directly above it.
func (m *Marks) NodeMarked(n ast.Node, kind string) bool {
	pos := m.fset.Position(n.Pos())
	return m.has(pos.Filename, pos.Line, kind) || m.has(pos.Filename, pos.Line-1, kind)
}

// DocMarked reports whether the comment group contains a kind directive.
func (m *Marks) DocMarked(doc *ast.CommentGroup, kind string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if parseKind(c.Text) == kind {
			return true
		}
	}
	return false
}

// FuncMarked reports whether the function declaration carries a kind
// directive, in its doc comment or directly above the func keyword.
func (m *Marks) FuncMarked(fd *ast.FuncDecl, kind string) bool {
	return m.DocMarked(fd.Doc, kind) || m.NodeMarked(fd, kind)
}

// HotFunc is one function in the hot-path closure.
type HotFunc struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *load.Package
	File *ast.File
	// Direct marks functions carrying //hepccl:hotpath themselves; the rest
	// were pulled in as static callees, Via naming the first caller found.
	Direct bool
	Via    *types.Func
}

// HotSet is the hot-path closure: every //hepccl:hotpath function plus
// everything those functions statically call within the program, minus
// functions marked //hepccl:coldpath. Calls through interfaces, function
// values, and closures are not resolved — the hotpathalloc closure rule
// flags those constructs at the call site instead.
type HotSet struct {
	Funcs map[*types.Func]*HotFunc
	// Asm holds the body-less declarations the closure calls — assembly
	// kernels. They are leaves the AST analyzers cannot enter, kept apart so
	// every walk over Funcs still finds a body; Ledger lists them, so the
	// hot-closure ledger records that the hot path runs code outside the
	// rules' reach. (What the compiler can still say about one — a pointer
	// argument escaping because the declaration lacks //go:noescape — lands
	// on the calling hot function through the escape cross-check.)
	Asm map[*types.Func]*HotFunc
}

// funcIndex maps every declared function (by origin object, so generic
// instantiations resolve to their declaration) to its declaration site.
type declSite struct {
	decl *ast.FuncDecl
	pkg  *load.Package
	file *ast.File
}

// ComputeHotSet walks the program's call graph from the annotated roots.
func ComputeHotSet(prog *load.Program, marks *Marks) *HotSet {
	decls := map[*types.Func]declSite{}
	for _, pkg := range prog.Packages {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					decls[obj.Origin()] = declSite{fd, pkg, file}
				}
			}
		}
	}

	hs := &HotSet{Funcs: map[*types.Func]*HotFunc{}, Asm: map[*types.Func]*HotFunc{}}
	var queue []*types.Func
	for obj, site := range decls {
		if site.decl.Body != nil && marks.FuncMarked(site.decl, Hotpath) {
			hs.Funcs[obj] = &HotFunc{Obj: obj, Decl: site.decl, Pkg: site.pkg, File: site.file, Direct: true}
			queue = append(queue, obj)
		}
	}
	// Deterministic traversal so Via attribution is stable run to run.
	sort.Slice(queue, func(i, j int) bool { return queue[i].Pos() < queue[j].Pos() })

	for len(queue) > 0 {
		caller := queue[0]
		queue = queue[1:]
		site := decls[caller]
		ast.Inspect(site.decl.Body, func(n ast.Node) bool {
			if stmt, ok := n.(ast.Stmt); ok {
				// Calls under an exempt statement are off the hot path and do
				// not extend the closure.
				if marks.NodeMarked(stmt, Coldpath) || marks.NodeMarked(stmt, Amortized) {
					return false
				}
			}
			ce, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := Callee(site.pkg.Info, ce)
			if callee == nil {
				return true
			}
			callee = callee.Origin()
			cs, ok := decls[callee]
			if !ok || hs.Funcs[callee] != nil || hs.Asm[callee] != nil {
				return true // external, undeclared, or already visited
			}
			if marks.FuncMarked(cs.decl, Coldpath) {
				return true
			}
			hf := &HotFunc{Obj: callee, Decl: cs.decl, Pkg: cs.pkg, File: cs.file, Via: caller}
			if cs.decl.Body == nil {
				hs.Asm[callee] = hf
				return true
			}
			hs.Funcs[callee] = hf
			queue = append(queue, callee)
			return true
		})
	}
	return hs
}

// Callee resolves a call expression to the called named function, or nil
// for conversions, builtins, and dynamic calls.
func Callee(info *types.Info, ce *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(ce.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.IndexExpr: // explicit generic instantiation f[T](...)
		if x, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			id = x
		}
	default:
		return nil
	}
	f, _ := info.Uses[id].(*types.Func)
	return f
}

// Sorted returns the hot functions the analyzers walk — every one has a
// body — in source order.
func (hs *HotSet) Sorted() []*HotFunc { return sortedFuncs(hs.Funcs) }

// Ledger returns the whole closure in source order: Sorted plus the assembly
// leaves. It is what `hepcclvet -funcs` prints and the drift gate reviews.
func (hs *HotSet) Ledger() []*HotFunc { return sortedFuncs(hs.Funcs, hs.Asm) }

func sortedFuncs(sets ...map[*types.Func]*HotFunc) []*HotFunc {
	var out []*HotFunc
	for _, set := range sets {
		for _, hf := range set {
			out = append(out, hf)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if a, b := out[i].Pkg.Path, out[j].Pkg.Path; a != b {
			return a < b
		}
		return out[i].Decl.Pos() < out[j].Decl.Pos()
	})
	return out
}

// Describe names a hot function for diagnostics, including how it entered
// the closure when it is not itself annotated.
func (hf *HotFunc) Describe() string {
	switch {
	case hf.Direct:
		return hf.Obj.Name()
	case hf.Decl.Body == nil:
		return hf.Obj.Name() + " (assembly, hot via " + hf.Via.Name() + ")"
	}
	return hf.Obj.Name() + " (hot via " + hf.Via.Name() + ")"
}

// LineRange is a file line span, used by the escape-output cross-check.
type LineRange struct {
	File       string
	Start, End int
}

// ExemptRanges returns the line spans of every //hepccl:coldpath and
// //hepccl:amortized statement inside hot functions — allocations the
// escape-mode cross-check must not count against the hot path.
func (hs *HotSet) ExemptRanges(fset *token.FileSet, marks *Marks) []LineRange {
	return hs.MarkedRanges(fset, marks, Coldpath, Amortized)
}

// MarkedRanges returns the line spans of every statement inside a hot
// function carrying one of the given directives. The span covers the whole
// statement, so one directive on a loop exempts the loop body.
func (hs *HotSet) MarkedRanges(fset *token.FileSet, marks *Marks, kinds ...string) []LineRange {
	var out []LineRange
	for _, hf := range hs.Funcs {
		ast.Inspect(hf.Decl.Body, func(n ast.Node) bool {
			stmt, ok := n.(ast.Stmt)
			if !ok {
				return true
			}
			for _, kind := range kinds {
				if marks.NodeMarked(stmt, kind) {
					start := fset.Position(stmt.Pos())
					end := fset.Position(stmt.End())
					out = append(out, LineRange{File: start.Filename, Start: start.Line, End: end.Line})
					return false
				}
			}
			return true
		})
	}
	return out
}

// LoopRanges returns the line span of every for/range statement inside the
// hot closure, keyed by the owning hot function — the scope of the
// boundscheck rule, which cares about checks the branch predictor pays for
// per iteration, not straight-line ones.
func (hs *HotSet) LoopRanges(fset *token.FileSet) map[LineRange]*HotFunc {
	out := map[LineRange]*HotFunc{}
	for _, hf := range hs.Funcs {
		ast.Inspect(hf.Decl.Body, func(n ast.Node) bool {
			switch n.(type) {
			case *ast.ForStmt, *ast.RangeStmt:
				start := fset.Position(n.Pos())
				end := fset.Position(n.End())
				out[LineRange{File: start.Filename, Start: start.Line, End: end.Line}] = hf
			}
			return true
		})
	}
	return out
}

// HotRanges returns each hot function's body line span, keyed for
// diagnostics by the function description.
func (hs *HotSet) HotRanges(fset *token.FileSet) map[LineRange]*HotFunc {
	out := map[LineRange]*HotFunc{}
	for _, hf := range hs.Funcs {
		start := fset.Position(hf.Decl.Pos())
		end := fset.Position(hf.Decl.End())
		out[LineRange{File: start.Filename, Start: start.Line, End: end.Line}] = hf
	}
	return out
}
