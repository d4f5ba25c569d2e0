package dirsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docFiles are the documents whose backticked identifiers must name code
// that exists.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// TestDocsStayTrue keeps the design document and its readers honest, the
// documentation twin of the options and calls rules. It fails on either
// of two things:
//
//   - a backticked identifier `pkg.Name`, `pkg.Type.Member` or
//     `pkg.(*Type).Member` in DESIGN.md, README.md or EXPERIMENTS.md,
//     pkg being a package under internal/ and Name exported, that no
//     non-test file declares (a member is a method, a struct field or an
//     interface method), unless DESIGN.md's "Retired" list names it;
//   - a citation of a DESIGN.md heading (the file name, a comma and the
//     heading in double quotes) in a Go file, the Makefile, a file under
//     .github/, README.md, EXPERIMENTS.md or ROADMAP.md whose heading
//     DESIGN.md does not have. Headings compare without case and
//     with runs of white space (and comment markers at a line break)
//     taken as one space.
func TestDocsStayTrue(t *testing.T) {
	decls := internalDecls(t)

	design := readDoc(t, "DESIGN.md")
	retired := make(map[string]bool)
	for _, name := range docIdents(section(design, "Retired"), decls) {
		retired[name] = true
	}
	if len(retired) == 0 {
		t.Error(`DESIGN.md has no "Retired" section naming a retired identifier`)
	}
	for _, doc := range docFiles {
		var stale []string
		for _, name := range docIdents(readDoc(t, doc), decls) {
			if !decls.declares(name) && !retired[name] {
				stale = append(stale, name)
			}
		}
		slices.Sort(stale)
		for _, name := range slices.Compact(stale) {
			t.Errorf("%s names `%s`, which no non-test file declares; correct it, or list it under DESIGN.md's \"Retired\"", doc, name)
		}
	}

	headings := make(map[string]bool)
	for _, line := range strings.Split(design, "\n") {
		if h := strings.TrimLeft(line, "#"); h != line && strings.HasPrefix(h, " ") {
			headings[normHeading(h)] = true
		}
	}
	cited := 0
	for _, file := range citingFiles(t) {
		for _, m := range citation.FindAllStringSubmatch(readDoc(t, file), -1) {
			cited++
			if h := normHeading(m[1]); !headings[h] {
				t.Errorf("%s cites the heading %q, which DESIGN.md does not have", file, h)
			}
		}
	}
	t.Logf("%d retired identifiers, %d headings, %d citations", len(retired), len(headings), cited)
}

// citation matches the file name, a comma and a quoted heading, across a
// line break and the comment marker that may follow it.
var citation = regexp.MustCompile(`DESIGN\.md,\s*(?:(?://|#)\s*)?"([^"]{1,200})"`)

// lineBreak is a line break with the indentation and comment marker of the
// next line.
var lineBreak = regexp.MustCompile(`\s*\n\s*(?:(?://|#)\s*)?`)

// normHeading folds case and white space, and a comment marker at a line
// break, so a heading matches however a citation wraps it.
func normHeading(h string) string {
	return strings.ToLower(strings.Join(strings.Fields(lineBreak.ReplaceAllString(h, " ")), " "))
}

// docIdent matches pkg.Name, pkg.Name.Member and pkg.(*Type).Member, pkg
// being the first group and not itself part of a longer name or path.
var docIdent = regexp.MustCompile(`(?:^|[^\w./])([a-z]\w*)\.(?:\(\*([A-Za-z_]\w*)\)|([A-Z]\w*))(?:\.([A-Za-z_]\w*))?`)

// backticked matches a backticked span on one line.
var backticked = regexp.MustCompile("`[^`\n]+`")

// docIdents returns the identifiers of internal packages that the
// backticked spans of text name, as "pkg.Name" or "pkg.Type.Member".
func docIdents(text string, decls declSet) []string {
	var names []string
	for _, span := range backticked.FindAllString(text, -1) {
		for _, m := range docIdent.FindAllStringSubmatch(span, -1) {
			pkg, typ, name, member := m[1], m[2], m[3], m[4]
			if decls[pkg] == nil {
				continue
			}
			if typ != "" {
				name = typ
				if member == "" {
					continue
				}
			}
			if member != "" {
				name += "." + member
			}
			names = append(names, pkg+"."+name)
		}
	}
	return names
}

// section returns the lines under the "## <title>" heading of text, up
// to the next heading of that level.
func section(text, title string) string {
	_, rest, ok := strings.Cut(text, "\n## "+title+"\n")
	if !ok {
		return ""
	}
	body, _, _ := strings.Cut(rest, "\n## ")
	return body
}

// declSet maps a package name under internal/ to the names its non-test
// files declare: top-level names, and "Type.Member" for each method,
// struct field and interface method.
type declSet map[string]map[string]bool

func (d declSet) declares(name string) bool {
	pkg, rest, _ := strings.Cut(name, ".")
	return d[pkg][rest]
}

// internalDecls parses every non-test file under internal/.
func internalDecls(t *testing.T) declSet {
	decls := make(declSet)
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		names := decls[f.Name.Name]
		if names == nil {
			names = make(map[string]bool)
			decls[f.Name.Name] = names
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					names[decl.Name.Name] = true
				} else {
					names[recvName(decl.Recv.List[0].Type)+"."+decl.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							names[id.Name] = true
						}
					case *ast.TypeSpec:
						names[spec.Name.Name] = true
						var members []*ast.Field
						switch typ := spec.Type.(type) {
						case *ast.StructType:
							members = typ.Fields.List
						case *ast.InterfaceType:
							members = typ.Methods.List
						}
						for _, fd := range members {
							for _, id := range fd.Names {
								names[spec.Name.Name+"."+id.Name] = true
							}
							if len(fd.Names) == 0 { // embedded: its name is its type's
								names[spec.Name.Name+"."+recvName(fd.Type)] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return decls
}

// recvName is the base type name of a receiver or embedded field type:
// T, *T, T[P] or pkg.T.
func recvName(typ ast.Expr) string {
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.SelectorExpr:
			return x.Sel.Name
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// citingFiles lists the files whose citations of DESIGN.md's headings
// must resolve: every Go file, the Makefile, every file under .github/,
// README.md, EXPERIMENTS.md and ROADMAP.md.
func citingFiles(t *testing.T) []string {
	files := []string{"Makefile", "README.md", "EXPERIMENTS.md", "ROADMAP.md"}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") && p != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") || strings.HasPrefix(filepath.ToSlash(p), ".github/") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

func readDoc(t *testing.T, name string) string {
	b, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunPatternsNameTests keeps the test selections of CI and the
// Makefile honest, so a renamed or folded test cannot leave a step
// running nothing: every top-level alternative of every `go test -run`
// pattern in .github/workflows/ci.yml and the Makefile must match a Test
// or Fuzz function declared in a package the same command names. A
// parenthesised group belongs to the alternative it sits in
// (TestDir1NB(Batch|Checked)?MatchesSpec is one), and ^$, which selects
// no test, is exempt.
func TestRunPatternsNameTests(t *testing.T) {
	funcs := make(map[string][]string) // package directory → its Test and Fuzz functions
	for _, file := range []string{filepath.Join(".github", "workflows", "ci.yml"), "Makefile"} {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		commands := 0
		for _, line := range strings.Split(strings.ReplaceAll(string(data), "\\\n", " "), "\n") {
			pattern, dirs := runSelection(line)
			if pattern == "" || pattern == "^$" {
				continue
			}
			commands++
			var tests []string
			for _, dir := range dirs {
				if _, ok := funcs[dir]; !ok {
					funcs[dir] = testFuncs(t, dir)
				}
				tests = append(tests, funcs[dir]...)
			}
			for _, alt := range topAlternatives(pattern) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s: -run %q: %v", file, pattern, err)
					continue
				}
				if !slices.ContainsFunc(tests, re.MatchString) {
					t.Errorf("%s: -run alternative %q matches no Test or Fuzz function in %s",
						file, alt, strings.Join(dirs, " "))
				}
			}
		}
		if commands == 0 {
			t.Errorf("%s: found no go test -run command", file)
		}
	}
}

// runSelection returns the -run pattern of the go test command on line,
// if there is one, and the package directories it names; ./... names
// every package of the module.
func runSelection(line string) (pattern string, dirs []string) {
	_, rest, ok := strings.Cut(line, "go test ")
	if !ok {
		if _, rest, ok = strings.Cut(line, "$(GO) test "); !ok {
			return "", nil
		}
	}
	words := shellWords(rest)
	for i, w := range words {
		switch {
		case w == "|" || w == "||" || w == "&&" || w == ";" || strings.HasPrefix(w, ">"):
			return pattern, dirs
		case w == "-run" && i+1 < len(words):
			pattern = words[i+1]
		case strings.HasPrefix(w, "-run="):
			pattern = strings.TrimPrefix(w, "-run=")
		case w == "./...":
			dirs = append(dirs, modulePackages()...)
		case w == "." || strings.HasPrefix(w, "./"):
			dirs = append(dirs, filepath.Clean(w))
		}
	}
	return pattern, dirs
}

// shellWords splits s into words at blanks, as a shell does, keeping
// what single or double quotes enclose in one word without the quotes.
func shellWords(s string) []string {
	var words []string
	var w strings.Builder
	var quote rune
	inWord := false
	for _, r := range s {
		switch {
		case quote != 0 && r == quote:
			quote = 0
		case quote != 0:
			w.WriteRune(r)
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				words, inWord = append(words, w.String()), false
				w.Reset()
			}
		default:
			w.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, w.String())
	}
	return words
}

// topAlternatives splits pattern at each | outside parentheses.
func topAlternatives(pattern string) []string {
	var alts []string
	depth, from := 0, 0
	for i, r := range pattern {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				alts, from = append(alts, pattern[from:i]), i+1
			}
		}
	}
	return append(alts, pattern[from:])
}

// modulePackages returns every directory of the module holding Go files,
// leaving out testdata and hidden directories.
func modulePackages() []string {
	var dirs []string
	filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") && !slices.Contains(dirs, filepath.Dir(path)) {
			dirs = append(dirs, filepath.Dir(path))
		}
		return nil
	})
	return dirs
}

// testFuncs returns the Test and Fuzz functions the test files in dir
// declare.
func testFuncs(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	fset := token.NewFileSet()
	for _, f := range files {
		file, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil &&
				(strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names
}
