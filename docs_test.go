package flymon

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

var (
	docInlineCode = regexp.MustCompile("`([^`\n]+)`")
	docPathToken  = regexp.MustCompile(`^([A-Za-z0-9_][A-Za-z0-9_./-]*\.(?:go|txt|md|json))(?::\d+)?$`)
	docMakeTarget = regexp.MustCompile(`(?:^|[\s;&|(])make ([a-z][a-z0-9-]*)`)
	makefileRule  = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	// docQualified matches `pkg.Ident`, `Type.Member` and `pkg.Type.Member`,
	// with /Alternative members and a trailing call or punctuation allowed:
	// `Controller.Process/ProcessBatch`, `Pipeline.Locate(id)`.
	docQualified = regexp.MustCompile(`^\*?([A-Za-z]\w*)\.([A-Za-z]\w*)(?:\.([A-Za-z]\w*))?((?:/[A-Za-z]\w*)*)(?:[(\[{].*|[.,;:]*)$`)
)

// goDecls indexes what the Go packages under internal/ declare, exported or
// not, tests excluded: byPkg[pkg][name] for package-level identifiers,
// members[type][name] for the methods and fields of every type of that name
// (in any package — a document rarely qualifies a type).
type goDecls struct {
	byPkg   map[string]map[string]bool
	members map[string]map[string]bool
}

func parseInternalDecls(t *testing.T) goDecls {
	d := goDecls{byPkg: map[string]map[string]bool{}, members: map[string]map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	err := filepath.WalkDir("internal", func(path string, e fs.DirEntry, err error) error {
		if err != nil || !e.IsDir() {
			return err
		}
		pkgs, err := parser.ParseDir(token.NewFileSet(), path, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, 0)
		if err != nil {
			return err
		}
		for name, pkg := range pkgs {
			if d.byPkg[name] == nil {
				d.byPkg[name] = map[string]bool{}
			}
			for _, f := range pkg.Files {
				for _, decl := range f.Decls {
					switch decl := decl.(type) {
					case *ast.FuncDecl:
						if decl.Recv == nil {
							d.byPkg[name][decl.Name.Name] = true
							continue
						}
						recv := decl.Recv.List[0].Type
						if star, ok := recv.(*ast.StarExpr); ok {
							recv = star.X
						}
						if ix, ok := recv.(*ast.IndexExpr); ok {
							recv = ix.X
						}
						if id, ok := recv.(*ast.Ident); ok {
							member(id.Name, decl.Name.Name)
						}
					case *ast.GenDecl:
						for _, spec := range decl.Specs {
							switch spec := spec.(type) {
							case *ast.ValueSpec:
								for _, n := range spec.Names {
									d.byPkg[name][n.Name] = true
								}
							case *ast.TypeSpec:
								d.byPkg[name][spec.Name.Name] = true
								var fields *ast.FieldList
								switch typ := spec.Type.(type) {
								case *ast.StructType:
									fields = typ.Fields
								case *ast.InterfaceType:
									fields = typ.Methods
								}
								if fields == nil {
									member(spec.Name.Name, "") // a type without members is still a type
									continue
								}
								for _, fl := range fields.List {
									for _, n := range fl.Names {
										member(spec.Name.Name, n.Name)
									}
								}
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
	return d
}

// missing reports which identifiers a back-ticked token names that the code
// does not declare. Tokens the index cannot place — a metric name like
// `rpc.ping_us`, a file, a type of another module — name nothing checkable.
func (d goDecls) missing(tok string) []string {
	m := docQualified.FindStringSubmatch(tok)
	if m == nil || strings.Contains(tok, "_") {
		return nil
	}
	a, b, c := m[1], m[2], m[3]
	names := []string{b}
	if c != "" {
		names = []string{c}
	}
	if m[4] != "" {
		names = append(names, strings.Split(m[4][1:], "/")...)
	}
	var out []string
	pkg, isPkg := d.byPkg[a]
	switch {
	case isPkg && c == "":
		for _, n := range names {
			if !pkg[n] {
				out = append(out, a+"."+n)
			}
		}
	case isPkg:
		if !pkg[b] {
			return []string{a + "." + b}
		}
		a = b
		fallthrough
	default:
		members, isType := d.members[a]
		if !isType || !ast.IsExported(a) {
			return nil
		}
		for _, n := range names {
			if !members[n] {
				out = append(out, a+"."+n)
			}
		}
	}
	return out
}

// TestDocsReferenceExistingFiles keeps "no document references a file or an
// identifier that is not in the tree" true: every back-ticked
// *.go|*.txt|*.md|*.json path in the operator-facing documents must name a
// file that exists (a path with a directory is repo-relative; a bare name
// may live in any package), every `make <target>` in inline code or a
// fenced block must be a Makefile target, and every back-ticked
// `pkg.Identifier`, `Type.Member` or `pkg.Type.Member` whose package or
// type lives under internal/ must be declared there.
func TestDocsReferenceExistingFiles(t *testing.T) {
	decls := parseInternalDecls(t)
	baseNames := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || path == filepath.Join("bench", "out")) {
			return filepath.SkipDir
		}
		baseNames[d.Name()] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range makefileRule.FindAllStringSubmatch(string(mk), -1) {
		targets[m[1]] = true
	}

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		body, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checkPaths := func(lineNo int, span string) {
			for _, tok := range strings.Fields(span) {
				p := docPathToken.FindStringSubmatch(tok)
				if p == nil {
					for _, id := range decls.missing(tok) {
						t.Errorf("%s:%d names `%s`, which the code under internal/ does not declare", doc, lineNo, id)
					}
					continue
				}
				if strings.Contains(p[1], "/") {
					if _, err := os.Stat(p[1]); err != nil {
						t.Errorf("%s:%d references `%s`, which is not in the tree", doc, lineNo, p[1])
					}
				} else if !baseNames[p[1]] {
					t.Errorf("%s:%d references `%s`, and no file of that name is in the tree", doc, lineNo, p[1])
				}
			}
		}
		fenced := false
		for i, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			// Code on this line: the whole line inside a fence, the
			// back-ticked spans outside one.
			var code []string
			if fenced {
				code = []string{line}
			} else {
				for _, m := range docInlineCode.FindAllStringSubmatch(line, -1) {
					code = append(code, m[1])
					checkPaths(i+1, m[1])
				}
			}
			for _, c := range code {
				for _, m := range docMakeTarget.FindAllStringSubmatch(c, -1) {
					if !targets[m[1]] {
						t.Errorf("%s:%d mentions `make %s`, which is not a Makefile target", doc, i+1, m[1])
					}
				}
			}
		}
	}
}
