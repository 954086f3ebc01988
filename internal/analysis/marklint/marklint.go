// Package marklint validates the //hepccl: directive language itself. The
// other analyzers consume directives silently — a typo like //hepccl:hotpth,
// a //hepccl:pool pasted above a function, or a mark applied twice would
// simply not anchor, and the invariant the author thought they declared
// would be unenforced. marklint turns those silent no-ops into diagnostics:
//
//   - unknown verb: the text after //hepccl: is not a registered directive
//   - wrong position: the directive's verb is known but the comment does not
//     anchor a node of the kind that verb applies to (hotpath: function
//     declarations; coldpath: functions or statements; amortized, checked:
//     statements; pool: struct type doc comments; wake, done, cursor,
//     accounted, acctmu: struct field doc or trailing comments)
//   - duplicate: the same function, type, or field carries the same
//     directive more than once
package marklint

import (
	"go/ast"
	"go/token"

	"github.com/wustl-adapt/hepccl/internal/analysis/framework"
	"github.com/wustl-adapt/hepccl/internal/analysis/hepcclmark"
)

// Analyzer is the marklint checker.
var Analyzer = &framework.Analyzer{
	Name: "marklint",
	Doc:  "report malformed //hepccl: directives: unknown verbs, wrong anchors, duplicates",
	Run:  run,
}

// Anchor classes a directive may attach to.
const (
	anchorFunc = 1 << iota
	anchorStmt
	anchorType
	anchorField
)

// allowed maps each directive verb to the anchor classes it is meaningful on.
var allowed = map[string]int{
	hepcclmark.Hotpath:   anchorFunc,
	hepcclmark.Coldpath:  anchorFunc | anchorStmt,
	hepcclmark.Amortized: anchorStmt,
	hepcclmark.Checked:   anchorStmt,
	hepcclmark.Pool:      anchorType,
	hepcclmark.Wake:      anchorField,
	hepcclmark.Done:      anchorField,
	hepcclmark.Cursor:    anchorField,
	hepcclmark.Accounted: anchorField,
	hepcclmark.AcctMu:    anchorField,
}

// placement is the wording for the wrong-position diagnostic.
var placement = map[string]string{
	hepcclmark.Hotpath:   "a function declaration",
	hepcclmark.Coldpath:  "a function declaration or a statement",
	hepcclmark.Amortized: "a statement",
	hepcclmark.Checked:   "a statement",
	hepcclmark.Pool:      "a struct type's doc comment",
	hepcclmark.Wake:      "a struct field",
	hepcclmark.Done:      "a struct field",
	hepcclmark.Cursor:    "a struct field",
	hepcclmark.Accounted: "a struct field",
	hepcclmark.AcctMu:    "a struct field",
}

// occurrence is one //hepccl: comment in a file.
type occurrence struct {
	pos  token.Pos
	line int
	verb string
}

func run(pass *framework.Pass) error {
	for _, pkg := range pass.Prog.Packages {
		for _, file := range pkg.Files {
			checkFile(pass, file)
		}
	}
	return nil
}

func checkFile(pass *framework.Pass, file *ast.File) {
	fset := pass.Prog.Fset

	// Collect every directive occurrence, by line.
	var occs []occurrence
	byLine := map[int][]occurrence{}
	for _, cg := range file.Comments {
		for _, c := range cg.List {
			verb := hepcclmark.ParseKind(c.Text)
			if verb == "" {
				continue
			}
			o := occurrence{pos: c.Pos(), line: fset.Position(c.Pos()).Line, verb: verb}
			occs = append(occs, o)
			byLine[o.line] = append(byLine[o.line], o)
		}
	}
	if len(occs) == 0 {
		return
	}

	// Build per-line anchor classes and the entities for duplicate checks.
	anchors := map[int]int{}
	addLines := func(class int, lines ...int) {
		for _, l := range lines {
			anchors[l] |= class
		}
	}
	docLines := func(cg *ast.CommentGroup) []int {
		if cg == nil {
			return nil
		}
		var out []int
		for _, c := range cg.List {
			out = append(out, fset.Position(c.Pos()).Line)
		}
		return out
	}

	// entity is a func, struct type, or field that owns a set of comment
	// lines; the same verb occurring twice across those lines is a duplicate.
	type entity struct {
		pos   token.Pos
		what  string
		verbs int // allowed-class mask for the verbs this entity anchors
		lines []int
	}
	var entities []entity

	for _, d := range file.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			hdr := fset.Position(d.Pos()).Line
			lines := append(docLines(d.Doc), hdr, hdr-1)
			addLines(anchorFunc, lines...)
			entities = append(entities, entity{d.Pos(), "func " + d.Name.Name, anchorFunc, lines})
			if d.Body != nil {
				ast.Inspect(d.Body, func(n ast.Node) bool {
					if stmt, ok := n.(ast.Stmt); ok {
						l := fset.Position(stmt.Pos()).Line
						addLines(anchorStmt, l, l-1)
					}
					return true
				})
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				ts := spec.(*ast.TypeSpec)
				st, ok := ts.Type.(*ast.StructType)
				if !ok {
					continue
				}
				lines := append(docLines(d.Doc), docLines(ts.Doc)...)
				addLines(anchorType, lines...)
				entities = append(entities, entity{ts.Pos(), "type " + ts.Name.Name, anchorType, lines})
				for _, f := range st.Fields.List {
					lines := append(docLines(f.Doc), docLines(f.Comment)...)
					addLines(anchorField, lines...)
					name := "_"
					if len(f.Names) > 0 {
						name = f.Names[0].Name
					}
					entities = append(entities, entity{f.Pos(), "field " + ts.Name.Name + "." + name, anchorField, lines})
				}
			}
		}
	}

	// Unknown verbs and wrong positions.
	for _, o := range occs {
		mask, known := allowed[o.verb]
		if !known {
			pass.Reportf(o.pos, "unknown //hepccl: directive verb %q; known verbs: %s", o.verb, verbList())
			continue
		}
		if anchors[o.line]&mask == 0 {
			pass.Reportf(o.pos, "misplaced //hepccl:%s directive: it anchors nothing here and must mark %s", o.verb, placement[o.verb])
		}
	}

	// Duplicates, per entity and verb.
	for _, e := range entities {
		count := map[string]int{}
		// A doc's last line is also the header's line-1; count each
		// occurrence once even when its line appears twice in e.lines.
		seen := map[token.Pos]bool{}
		for _, l := range e.lines {
			for _, o := range byLine[l] {
				if allowed[o.verb]&e.verbs == 0 || seen[o.pos] {
					continue
				}
				seen[o.pos] = true
				count[o.verb]++
			}
		}
		for _, verb := range hepcclmark.Kinds {
			if count[verb] > 1 {
				pass.Reportf(e.pos, "duplicate //hepccl:%s directive on %s", verb, e.what)
			}
		}
	}
}

// verbList renders the registered verbs for the unknown-verb diagnostic.
func verbList() string {
	out := ""
	for i, k := range hepcclmark.Kinds {
		if i > 0 {
			out += ", "
		}
		out += k
	}
	return out
}
