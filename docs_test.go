package activeiter

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents that describe the code as it is. The other top-level
// markdown files are history (the change log, the roadmap) and sources
// (the paper and its excerpts): they may name code that is gone and are
// never checked.
var liveDocs = []string{"README.md", "bench/README.md", ".claude/skills/verify/SKILL.md"}

func historyDoc(path string) bool {
	return filepath.Dir(path) == "." && filepath.Ext(path) == ".md" && path != "README.md"
}

// TestDocReferencesResolve holds the documents to the code:
//   - every `pkg.Name` (pkg the root package or an internal/* package)
//     in README.md, docs/*.md, bench/README.md and the verify skill is a
//     declaration of that package, or a method or field declared in it
//     (and so is a second `.Name`, as in `pkg.Type.Method`);
//   - every section reference ("<file>.md §<title>", or README's) in a
//     .go or .md file names a heading of that file, the two agreeing on
//     whole words, one a prefix of the other;
//   - every directory under internal/ and cmd/ is named in
//     docs/ARCHITECTURE.md, and every stage there names its entry
//     points, invariant, bench metrics (each defined in
//     bench/README.md), span (each started in production code) and
//     pprof label.
func TestDocReferencesResolve(t *testing.T) {
	pkgs := map[string]*pkgNames{"activeiter": parsePkgNames(t, ".")}
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dirs {
		if d.IsDir() {
			pkgs[d.Name()] = parsePkgNames(t, filepath.Join("internal", d.Name()))
		}
	}

	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append(docs, liveDocs...) {
		for _, ref := range codeRefs(t, doc) {
			p := pkgs[ref.pkg]
			if p == nil {
				continue
			}
			if !p.top[ref.name] && !p.members[ref.name] {
				t.Errorf("%s: `%s.%s` names nothing in package %s", doc, ref.pkg, ref.name, ref.pkg)
			} else if ref.member != "" && !p.members[ref.member] && !p.top[ref.member] {
				t.Errorf("%s: `%s.%s.%s`: no method or field %s in package %s", doc, ref.pkg, ref.name, ref.member, ref.member, ref.pkg)
			}
		}
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && path != ".claude" && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == filepath.Join("bench", "out")) {
				return filepath.SkipDir
			}
			return nil
		}
		if ext := filepath.Ext(path); (ext != ".go" && ext != ".md") || historyDoc(path) {
			return nil
		}
		checkSectionRefs(t, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	arch, err := os.ReadFile("docs/ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, root := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			name := root + "/" + e.Name()
			if e.IsDir() && !regexp.MustCompile(regexp.QuoteMeta(name)+`\b`).Match(arch) {
				t.Errorf("docs/ARCHITECTURE.md does not name %s", name)
			}
		}
	}
	checkStages(t, string(arch))
}

// checkStages reads every ### stage of docs/ARCHITECTURE.md: its five
// fields are present, each metric in its Bench field is defined in
// bench/README.md, and each span in its Span field is a name production
// code passes to Tracer.Start.
func checkStages(t *testing.T, arch string) {
	t.Helper()
	benchDoc, err := os.ReadFile("bench/README.md")
	if err != nil {
		t.Fatal(err)
	}
	spans := spanNames(t)
	stages := strings.Split(arch, "\n### ")[1:]
	if len(stages) == 0 {
		t.Fatal("docs/ARCHITECTURE.md has no stages")
	}
	for _, stage := range stages {
		name, _, _ := strings.Cut(stage, "\n")
		for _, field := range []string{"Entry points", "Invariant", "Bench", "Span", "pprof label"} {
			if !strings.Contains(stage, "**"+field+":**") {
				t.Errorf("docs/ARCHITECTURE.md stage %q has no %s", name, field)
			}
		}
		for _, code := range inlineRE.FindAllString(fieldText(stage, "Bench"), -1) {
			if !strings.Contains(string(benchDoc), code) {
				t.Errorf("docs/ARCHITECTURE.md stage %q: bench metric %s is not in bench/README.md", name, code)
			}
		}
		for _, code := range inlineRE.FindAllString(fieldText(stage, "Span"), -1) {
			if !spans[strings.Trim(code, "`")] {
				t.Errorf("docs/ARCHITECTURE.md stage %q: no production code starts span %s", name, code)
			}
		}
	}
}

// fieldText is the text of a "- **Field:**" list item, up to the next
// field or the end of the list.
func fieldText(stage, field string) string {
	_, rest, ok := strings.Cut(stage, "- **"+field+":**")
	if !ok {
		return ""
	}
	if i := regexp.MustCompile(`\*\*[A-Za-z ]+:\*\*|\n\n`).FindStringIndex(rest); i != nil {
		rest = rest[:i[0]]
	}
	return rest
}

// spanNames collects the span names production code (not tests, the
// benchmark or the examples) passes to a Start call, as a literal or a
// fmt.Sprintf format whose verbs read as N.
func spanNames(t *testing.T) map[string]bool {
	t.Helper()
	names := map[string]bool{}
	verb := regexp.MustCompile(`%[a-z]`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		switch {
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" || path == "bench" || path == "examples"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || sel.Sel.Name != "Start" {
				return true
			}
			arg := call.Args[0]
			if inner, ok := arg.(*ast.CallExpr); ok && len(inner.Args) > 0 {
				arg = inner.Args[0] // fmt.Sprintf("shard %d", …)
			}
			if lit, ok := arg.(*ast.BasicLit); ok && lit.Kind == token.STRING {
				names[verb.ReplaceAllString(strings.Trim(lit.Value, "`\""), "N")] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return names
}

// pkgNames is what a package declares: top-level names, and the
// methods and struct fields of its types.
type pkgNames struct{ top, members map[string]bool }

func parsePkgNames(t *testing.T, dir string) *pkgNames {
	t.Helper()
	skipTests := func(fi fs.FileInfo) bool { return !strings.HasSuffix(fi.Name(), "_test.go") }
	parsed, err := parser.ParseDir(token.NewFileSet(), dir, skipTests, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	names := &pkgNames{top: map[string]bool{}, members: map[string]bool{}}
	for _, pkg := range parsed {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					if decl.Recv != nil {
						names.members[decl.Name.Name] = true
					} else {
						names.top[decl.Name.Name] = true
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names.top[spec.Name.Name] = true
							addMembers(names.members, spec.Type)
						case *ast.ValueSpec:
							for _, n := range spec.Names {
								names.top[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	return names
}

// addMembers records the fields of a struct type and the methods of an
// interface type.
func addMembers(members map[string]bool, typ ast.Expr) {
	var fields *ast.FieldList
	switch typ := typ.(type) {
	case *ast.StructType:
		fields = typ.Fields
	case *ast.InterfaceType:
		fields = typ.Methods
	default:
		return
	}
	for _, f := range fields.List {
		for _, n := range f.Names {
			members[n.Name] = true
		}
		if len(f.Names) == 0 { // embedded: promoted under its type's name
			if id, ok := ast.Unparen(f.Type).(*ast.Ident); ok {
				members[id.Name] = true
			}
		}
	}
}

type codeRef struct{ pkg, name, member string }

var (
	fenceRE   = regexp.MustCompile("(?ms)^\\s*```.*?^\\s*```")
	inlineRE  = regexp.MustCompile("`[^`\n]+`")
	qualRE    = regexp.MustCompile(`(?:^|[^\w./])([a-z][a-z0-9]*)\.([A-Z]\w*)(?:\.([A-Z]\w*))?`)
	sectionRE = regexp.MustCompile(`(?:\[[^\]\n]*\]\()?([\w./-]*\w\.md|README)\)? §(\w[^,;:.()\[\]` + "`" + `"*—]*)`)
	headingRE = regexp.MustCompile(`(?m)^#{1,6}\s+(.+)$`)
)

// codeRefs lists the qualified names inside the inline code spans of a
// markdown file; fenced blocks are commands and programs, not names.
func codeRefs(t *testing.T, path string) []codeRef {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var refs []codeRef
	for _, span := range inlineRE.FindAll(fenceRE.ReplaceAll(raw, nil), -1) {
		for _, m := range qualRE.FindAllSubmatch(span, -1) {
			refs = append(refs, codeRef{string(m[1]), string(m[2]), string(m[3])})
		}
	}
	return refs
}

// checkSectionRefs resolves every section reference in path. Comment
// markers and line breaks are folded away first, so a title may wrap.
func checkSectionRefs(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	text := regexp.MustCompile(`\n\s*(//\s?)?`).ReplaceAllString(string(raw), " ")
	for _, m := range sectionRE.FindAllStringSubmatch(text, -1) {
		target, title := m[1], strings.TrimSpace(m[2])
		file := resolveDoc(path, target)
		if file == "" {
			t.Errorf("%s: %s §%s: no such file", path, target, title)
			continue
		}
		if !hasHeading(t, file, title) {
			t.Errorf("%s: %s §%s: %s has no such heading", path, target, title, file)
		}
	}
}

// resolveDoc finds the file a reference names: beside the referring
// file, from the repository root, or in docs/.
func resolveDoc(from, target string) string {
	if target == "README" {
		target = "README.md"
	}
	for _, p := range []string{filepath.Join(filepath.Dir(from), target), target, filepath.Join("docs", filepath.Base(target))} {
		if _, err := os.Stat(p); err == nil {
			return p
		}
	}
	return ""
}

func hasHeading(t *testing.T, file, title string) bool {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	want := titleWords(title)
	for _, m := range headingRE.FindAllSubmatch(fenceRE.ReplaceAll(raw, nil), -1) {
		got := titleWords(string(m[1]))
		n := min(len(got), len(want))
		if n > 0 && strings.Join(got[:n], " ") == strings.Join(want[:n], " ") {
			return true
		}
	}
	return false
}

func titleWords(s string) []string {
	return strings.Fields(strings.ToLower(strings.NewReplacer("`", "", "*", "", "_", " ").Replace(s)))
}
