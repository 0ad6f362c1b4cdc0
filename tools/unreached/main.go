// Command unreached lists the functions under internal/ that no binary of
// the repository can execute, and holds that list to an allowlist.
//
// It links every cmd/* and examples/* main and the bench binary with
// inlining off (-gcflags=all=-l, so every call is a linker edge) and the
// linker's reachability dump on (-ldflags=-dumpdep), and collects every
// symbol a link kept. A non-test function declared under internal/ (for
// this GOOS/GOARCH) that no link kept is unreached.
//
// Each allowlist line is a symbol, a tab, and the reason it may stay
// unreached: "oracle (item N)", "bench-pinned (item 1)", "test helper",
// "test subject" (a conformance, paper-figure or protocol test names it),
// "interface" (an interface the type satisfies requires it),
// "placement (item 25)" or "kept for item N", optionally followed by " — "
// and a note. Item numbers are ROADMAP.md's. The command fails when an
// unreached function is not listed, when a listed function is reached or no
// longer declared, or when an entry carries no such reason — so the list
// only shrinks.
//
// Usage, from the repository root:
//
//	go run ./tools/unreached [-allow testdata/unreached.txt] [-v]
//
// -v prints every unreached function with its position and length.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const module = "flymon/"

// reasons are the allowed allowlist reasons.
var reasons = regexp.MustCompile(`^(oracle \(item \d+\)|bench-pinned \(item 1\)|test helper|test subject|interface|placement \(item 25\)|kept for item \d+[a-z()]*)( — .+)?$`)

// fn is one function declared under internal/.
type fn struct {
	sym   string // linker name without the module prefix: internal/pkg.(*T).M
	pos   string // file:line
	lines int
}

func main() {
	allow := flag.String("allow", "testdata/unreached.txt", "allowlist of functions that may stay unreached")
	verbose := flag.Bool("v", false, "print every unreached function")
	flag.Parse()

	decls, err := declared("internal")
	if err != nil {
		fatal(err)
	}
	reached, err := linked()
	if err != nil {
		fatal(err)
	}
	listed, err := readAllowlist(*allow)
	if err != nil {
		fatal(err)
	}

	var unreached []fn
	lines := 0
	byPkg := map[string][2]int{}
	for _, f := range decls {
		if reached[f.sym] {
			continue
		}
		unreached = append(unreached, f)
		lines += f.lines
		pkg := f.sym[:strings.IndexByte(f.sym, '.')]
		c := byPkg[pkg]
		byPkg[pkg] = [2]int{c[0] + 1, c[1] + f.lines}
	}
	if *verbose {
		for _, f := range unreached {
			fmt.Printf("%-70s %4d  %s\n", f.sym, f.lines, f.pos)
		}
		pkgs := make([]string, 0, len(byPkg))
		for p := range byPkg {
			pkgs = append(pkgs, p)
		}
		sort.Strings(pkgs)
		for _, p := range pkgs {
			fmt.Printf("%-40s %3d functions %4d lines\n", p, byPkg[p][0], byPkg[p][1])
		}
	}
	fmt.Printf("unreached: %d functions, %d lines\n", len(unreached), lines)

	var problems []string
	isUnreached := map[string]bool{}
	for _, f := range unreached {
		isUnreached[f.sym] = true
		if _, ok := listed[f.sym]; !ok {
			problems = append(problems, fmt.Sprintf("%s (%s, %d lines) is reached by no binary and not in %s", f.sym, f.pos, f.lines, *allow))
		}
	}
	isDeclared := map[string]bool{}
	for _, f := range decls {
		isDeclared[f.sym] = true
	}
	for sym, reason := range listed {
		switch {
		case !isDeclared[sym]:
			problems = append(problems, fmt.Sprintf("%s is listed in %s but no longer declared: drop the line", sym, *allow))
		case !isUnreached[sym]:
			problems = append(problems, fmt.Sprintf("%s is listed in %s but a binary reaches it now: drop the line", sym, *allow))
		case !reasons.MatchString(reason):
			problems = append(problems, fmt.Sprintf("%s: reason %q is not one of oracle (item N), bench-pinned (item 1), test helper, test subject, interface, placement (item 25), kept for item N", sym, reason))
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		os.Exit(1)
	}
}

// declared returns every non-test function declared under root for the
// build context's GOOS/GOARCH, in a stable order.
func declared(root string) ([]fn, error) {
	fset := token.NewFileSet()
	var out []fn
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path))
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := fd.Name.Name
			if fd.Type.TypeParams != nil {
				name += "[...]"
			}
			if fd.Recv != nil {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			start, end := fset.Position(fd.Pos()), fset.Position(fd.End())
			out = append(out, fn{
				sym:   pkg + "." + name,
				pos:   fmt.Sprintf("%s:%d", path, start.Line),
				lines: end.Line - start.Line + 1,
			})
		}
		return nil
	})
	sort.Slice(out, func(i, j int) bool { return out[i].sym < out[j].sym })
	return out, err
}

// recvName renders a receiver type as the linker names it: T, (*T),
// T[...] or (*T[...]).
func recvName(e ast.Expr) string {
	star := false
	if s, ok := e.(*ast.StarExpr); ok {
		star, e = true, s.X
	}
	var name string
	switch t := e.(type) {
	case *ast.Ident:
		name = t.Name
	case *ast.IndexExpr:
		name = t.X.(*ast.Ident).Name + "[...]"
	case *ast.IndexListExpr:
		name = t.X.(*ast.Ident).Name + "[...]"
	}
	if star {
		return "(*" + name + ")"
	}
	return name
}

// linked builds every binary with the linker's reachability dump and
// returns the set of internal/ symbols some link kept, module prefix
// stripped and type arguments written [...].
func linked() (map[string]bool, error) {
	tmp, err := os.MkdirTemp("", "unreached")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	builds := [][]string{
		{"build", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", tmp + string(filepath.Separator), "./cmd/...", "./examples/..."},
		{"build", "-C", "bench", "-gcflags=all=-l", "-ldflags=-dumpdep", "-o", filepath.Join(tmp, "bench.bin"), "."},
	}
	reached := map[string]bool{}
	for _, args := range builds {
		cmd := exec.Command("go", args...)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, &out
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, tail(out.Bytes()))
		}
		sc := bufio.NewScanner(&out)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			_, to, ok := strings.Cut(sc.Text(), " -> ")
			if !ok || !strings.HasPrefix(to, module+"internal/") {
				continue
			}
			reached[elideTypeArgs(strings.TrimPrefix(to, module))] = true
		}
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return reached, nil
}

// elideTypeArgs writes every outermost [...] of a symbol — an
// instantiation's shapes, which nest brackets of their own — as [...].
func elideTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			if depth == 0 {
				b.WriteString("[...]")
			}
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// readAllowlist parses symbol<TAB>reason lines; blank lines and lines
// starting with # are skipped.
func readAllowlist(path string) (map[string]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	out := map[string]string{}
	for i, line := range strings.Split(string(data), "\n") {
		if line = strings.TrimSpace(line); line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sym, reason, _ := strings.Cut(line, "\t")
		sym = strings.TrimSpace(sym)
		if _, dup := out[sym]; dup {
			return nil, fmt.Errorf("%s:%d: %s listed twice", path, i+1, sym)
		}
		out[sym] = strings.TrimSpace(reason)
	}
	return out, nil
}

// tail returns the last lines of a build's output.
func tail(b []byte) []byte {
	lines := bytes.Split(b, []byte("\n"))
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return bytes.Join(lines, []byte("\n"))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "unreached:", err)
	os.Exit(2)
}
