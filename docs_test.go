package hepccl_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestDocsResolve holds README.md and DESIGN.md to the tree as it stands.
// Every inline code span outside a fenced block must resolve when it is one
// of these:
//
//   - a qualified identifier, pkg.Name, pkg.Type.Member or Type.Member,
//     against the declarations of the module and of bench/ (a member is a
//     method, a field, or either through an embedded field); a standard
//     library package's members are not checked;
//   - a -flag (or --flag) that some cmd/* or hepcclbench flag set defines,
//     or one of the go tool's flags in goToolFlags;
//   - a repository path (a file's base name, or a path under a top-level
//     entry or under internal/), which must exist;
//   - make and its targets, which the Makefile must define.
//
// DESIGN.md §3 must also name every package of the module. Text between
// <!-- historical --> and <!-- /historical --> is exempt: it describes the
// past on purpose.
func TestDocsResolve(t *testing.T) {
	ix := buildDocIndex(t, ".")
	for _, doc := range []string{"README.md", "DESIGN.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range codeSpans(string(text)) {
			if why := ix.check(sp.text); why != "" {
				t.Errorf("%s:%d: `%s`: %s", doc, sp.line, sp.text, why)
			}
		}
	}
	text, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	line, named := inventory(string(text))
	if line == 0 {
		t.Fatal("DESIGN.md: no \"## 3.\" system inventory section")
	}
	for _, dir := range ix.pkgDirs {
		if !named[dir] {
			t.Errorf("DESIGN.md:%d: §3 does not name package `%s`", line, dir)
		}
	}
}

// goToolFlags are the go command's own flags that the documents quote.
var goToolFlags = map[string]bool{
	"race": true, "gcflags": true, "run": true, "bench": true,
	"benchtime": true, "benchmem": true, "count": true, "short": true,
	"fuzz": true, "fuzztime": true, "coverpkg": true, "C": true, "deps": true,
}

// flagCtors maps each flag.FlagSet constructor to the index of its name
// argument.
var flagCtors = map[string]int{
	"Bool": 0, "BoolVar": 1, "BoolFunc": 0, "Duration": 0, "DurationVar": 1,
	"Float64": 0, "Float64Var": 1, "Func": 0, "Int": 0, "IntVar": 1,
	"Int64": 0, "Int64Var": 1, "String": 0, "StringVar": 1, "TextVar": 1,
	"Uint": 0, "UintVar": 1, "Uint64": 0, "Uint64Var": 1, "Var": 1,
}

// docIndex is everything the documents may name.
type docIndex struct {
	root     string
	pkgs     map[string]map[string]bool // package name → top-level identifiers
	members  map[string]map[string]bool // type name → fields and methods
	embeds   map[string][]string        // type name → embedded type names
	external map[string]bool            // names of imported packages outside the module
	flags    map[string]bool
	targets  map[string]bool
	files    map[string]bool // base names of every repository file
	pkgDirs  []string        // module package directories; "hepccl" is the root
}

func buildDocIndex(t *testing.T, root string) *docIndex {
	t.Helper()
	ix := &docIndex{
		root:     root,
		pkgs:     map[string]map[string]bool{},
		members:  map[string]map[string]bool{},
		embeds:   map[string][]string{},
		external: map[string]bool{},
		flags:    map[string]bool{},
		targets:  map[string]bool{},
		files:    map[string]bool{},
	}
	fset := token.NewFileSet()
	pkgDirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == ".git" || name == ".claude") {
				return filepath.SkipDir
			}
			return nil
		}
		ix.files[name] = true
		rel := filepath.ToSlash(path)
		if !strings.HasSuffix(name, ".go") || strings.Contains("/"+rel, "/testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ix.addFile(f)
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir != "bench" && !strings.HasPrefix(dir, "bench/") {
			if dir == "." {
				dir = "hepccl"
			}
			pkgDirs[dir] = true
		}
		isTest := strings.HasSuffix(name, "_test.go")
		if !isTest && (strings.HasPrefix(dir, "cmd/") || dir == "bench/cmd/hepcclbench") {
			ix.addFlags(f)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range pkgDirs {
		ix.pkgDirs = append(ix.pkgDirs, dir)
	}
	sort.Strings(ix.pkgDirs)
	mk, err := os.ReadFile(filepath.Join(root, "Makefile"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		for _, target := range strings.Fields(m[1]) {
			ix.targets[target] = true
		}
	}
	return ix
}

var makeRule = regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+(?:[ \t]+[A-Za-z0-9_.-]+)*)[ \t]*:(?:[^=]|$)`)

// addFile records f's top-level declarations, its types' members and the
// packages outside the module that it imports.
func (ix *docIndex) addFile(f *ast.File) {
	pkg := f.Name.Name
	if ix.pkgs[pkg] == nil {
		ix.pkgs[pkg] = map[string]bool{}
	}
	decls := ix.pkgs[pkg]
	for _, imp := range f.Imports {
		path, _ := strconv.Unquote(imp.Path.Value)
		if !strings.HasPrefix(path, "github.com/wustl-adapt/hepccl") {
			ix.external[path[strings.LastIndex(path, "/")+1:]] = true
		}
	}
	member := func(typ, name string) {
		if ix.members[typ] == nil {
			ix.members[typ] = map[string]bool{}
		}
		ix.members[typ][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				decls[d.Name.Name] = true
			} else if typ := typeName(d.Recv.List[0].Type); typ != "" {
				member(typ, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.ValueSpec:
					for _, n := range s.Names {
						decls[n.Name] = true
					}
				case *ast.TypeSpec:
					typ := s.Name.Name
					decls[typ] = true
					var fields *ast.FieldList
					switch tt := s.Type.(type) {
					case *ast.StructType:
						fields = tt.Fields
					case *ast.InterfaceType:
						fields = tt.Methods
					}
					if fields == nil {
						continue
					}
					for _, fl := range fields.List {
						if len(fl.Names) == 0 {
							if e := typeName(fl.Type); e != "" {
								ix.embeds[typ] = append(ix.embeds[typ], e)
							}
						}
						for _, n := range fl.Names {
							member(typ, n.Name)
						}
					}
				}
			}
		}
	}
}

// typeName is the bare name of a (possibly pointer, qualified or generic)
// type expression, or "".
func typeName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return typeName(e.X)
	case *ast.IndexExpr:
		return typeName(e.X)
	case *ast.IndexListExpr:
		return typeName(e.X)
	case *ast.SelectorExpr:
		return e.Sel.Name
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// addFlags records the name of every flag f defines through a flag.FlagSet
// or the flag package.
func (ix *docIndex) addFlags(f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		i, ok := flagCtors[sel.Sel.Name]
		if !ok || i >= len(call.Args) {
			return true
		}
		if lit, ok := call.Args[i].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			if name, err := strconv.Unquote(lit.Value); err == nil {
				ix.flags[name] = true
			}
		}
		return true
	})
}

var (
	flagToken  = regexp.MustCompile(`(?:^|\s)--?([A-Za-z][A-Za-z0-9-]*)(?:=|\s|$)`)
	quoted     = regexp.MustCompile(`'[^']*'|"[^"]*"`)
	callPrefix = regexp.MustCompile(`^([A-Za-z_][\w.]*)\(`)
	qualified  = regexp.MustCompile(`^[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+$`)
	fileName   = regexp.MustCompile(`^[\w.-]+\.(?:go|s|md|txt|json|yml|sh|golden|mod)$`)
	repoPath   = regexp.MustCompile(`^[\w.-]+(?:/[\w.*-]+)+$`)
)

// check returns why span does not resolve, or "" when it does (or is none
// of the kinds the test resolves).
func (ix *docIndex) check(span string) string {
	if rest, ok := strings.CutPrefix(span, "make "); ok {
		for _, target := range strings.Fields(rest) {
			if !strings.Contains(target, "=") && !ix.targets[target] {
				return "no Makefile target " + target
			}
		}
		return ""
	}
	for _, m := range flagToken.FindAllStringSubmatch(quoted.ReplaceAllString(span, ""), -1) {
		if name := m[1]; !ix.flags[name] && !goToolFlags[name] {
			return "no command defines -" + name
		}
	}
	if m := callPrefix.FindStringSubmatch(span); m != nil {
		span = m[1]
	}
	switch {
	case strings.ContainsAny(span, " \t"):
		return ""
	case fileName.MatchString(span):
		if !ix.files[span] {
			return "no such file in the repository"
		}
	case strings.Contains(span, "/"):
		return ix.checkPath(span)
	case qualified.MatchString(span):
		if !ix.resolves(strings.Split(span, ".")) {
			return "resolves to no declaration"
		}
	}
	return ""
}

// checkPath resolves a path under a top-level entry of the repository or
// under internal/. Other slashed spans (HTTP routes, standard library
// import paths, directives) are not repository paths.
func (ix *docIndex) checkPath(p string) string {
	p = strings.TrimSuffix(strings.TrimSuffix(p, "/..."), "/")
	if !repoPath.MatchString(p) {
		return ""
	}
	first := p[:strings.Index(p, "/")]
	for _, base := range []string{"", "internal"} {
		if st, err := os.Stat(filepath.Join(ix.root, base, first)); err != nil || (base != "" && !st.IsDir()) {
			continue
		}
		if m, _ := filepath.Glob(filepath.Join(ix.root, base, filepath.FromSlash(p))); len(m) > 0 {
			return ""
		}
		return "no such path in the repository"
	}
	return ""
}

// resolves reports whether a dotted name is a declaration: pkg.Name,
// pkg.Type.Member or Type.Member. A package outside the module resolves
// whatever follows it.
func (ix *docIndex) resolves(parts []string) bool {
	if decls, ok := ix.pkgs[parts[0]]; ok {
		switch {
		case len(parts) == 2 && decls[parts[1]]:
			return true
		case len(parts) == 3 && decls[parts[1]] && ix.hasMember(parts[1], parts[2], 0):
			return true
		}
	} else if ix.external[parts[0]] {
		return true
	}
	return len(parts) == 2 && ix.hasMember(parts[0], parts[1], 0)
}

func (ix *docIndex) hasMember(typ, name string, depth int) bool {
	if ix.members[typ][name] {
		return true
	}
	for _, e := range ix.embeds[typ] {
		if depth < 4 && ix.hasMember(e, name, depth+1) {
			return true
		}
	}
	return false
}

type span struct {
	text string
	line int
}

var inlineCode = regexp.MustCompile("`((?:[^`\n]|\n[^`\n])+)`")

// codeSpans returns the inline code spans of a markdown text with their
// line numbers, skipping fenced blocks and historical sections.
func codeSpans(text string) []span {
	lines := strings.Split(text, "\n")
	fenced, historical := false, false
	for i, l := range lines {
		trimmed := strings.TrimSpace(l)
		switch {
		case strings.HasPrefix(trimmed, "```"):
			fenced = !fenced
			lines[i] = ""
		case strings.Contains(l, "<!-- historical -->"):
			historical = true
			lines[i] = ""
		case strings.Contains(l, "<!-- /historical -->"):
			historical = false
			lines[i] = ""
		case fenced || historical:
			lines[i] = ""
		}
	}
	text = strings.Join(lines, "\n")
	var out []span
	for _, m := range inlineCode.FindAllStringSubmatchIndex(text, -1) {
		out = append(out, span{
			text: strings.Join(strings.Fields(text[m[2]:m[3]]), " "),
			line: 1 + strings.Count(text[:m[0]], "\n"),
		})
	}
	return out
}

// inventory returns the line of DESIGN.md's "## 3." heading and the code
// spans in that section.
func inventory(text string) (int, map[string]bool) {
	lines := strings.Split(text, "\n")
	start, end := -1, len(lines)
	for i, l := range lines {
		if strings.HasPrefix(l, "## 3.") {
			start = i
		} else if start >= 0 && strings.HasPrefix(l, "## ") {
			end = i
			break
		}
	}
	if start < 0 {
		return 0, nil
	}
	named := map[string]bool{}
	for _, sp := range codeSpans(strings.Join(lines[start:end], "\n")) {
		named[sp.text] = true
	}
	return start + 1, named
}
