package flymon

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

var (
	makeRunPattern = regexp.MustCompile(`-run '([^']+)'`)
	testFuncName   = regexp.MustCompile(`(?m)^func (Test\w+)\(`)
	citedTestName  = regexp.MustCompile(`\bTest\w+`)
)

// TestChaosPatternMatchesTests keeps `make chaos` and `make bench-allocs`
// honest: every alternative of a target's -run pattern must still select
// at least one test in the packages the target names, every package it
// names must hold a selected test, and every test its comment cites must
// exist there and be selected — so a renamed or deleted drill or alloc gate
// cannot silently drop out of the target.
func TestChaosPatternMatchesTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, target := range []string{"chaos", "bench-allocs"} {
		t.Run(target, func(t *testing.T) {
			comment, recipe := makeTarget(t, string(mk), target)
			m := makeRunPattern.FindStringSubmatch(recipe)
			if m == nil {
				t.Fatalf("Makefile: target %s has no -run '…' pattern", target)
			}
			run := regexp.MustCompile(m[1])
			var dirs, names []string
			for _, f := range strings.Fields(recipe[strings.Index(recipe, m[0])+len(m[0]):]) {
				if !strings.HasPrefix(f, "./") {
					continue
				}
				dirs = append(dirs, f)
				files, err := filepath.Glob(filepath.Join(f, "*_test.go"))
				if err != nil || len(files) == 0 {
					t.Fatalf("%s target names %s, which has no test files (%v)", target, f, err)
				}
				selected := false
				for _, file := range files {
					src, err := os.ReadFile(file)
					if err != nil {
						t.Fatal(err)
					}
					for _, fn := range testFuncName.FindAllSubmatch(src, -1) {
						names = append(names, string(fn[1]))
						selected = selected || run.Match(fn[1])
					}
				}
				if !selected {
					t.Errorf("%s -run %q selects no test in %s", target, m[1], f)
				}
			}
			if len(dirs) == 0 {
				t.Fatalf("%s target names no package", target)
			}
			for _, alt := range splitAlternatives(m[1]) {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("%s -run alternative %q: %v", target, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("%s -run alternative %q matches no test in %s", target, alt, strings.Join(dirs, " "))
				}
			}
			for _, cited := range citedTestName.FindAllString(comment, -1) {
				if !slices.Contains(names, cited) || !run.MatchString(cited) {
					t.Errorf("the %s target's comment cites %s, which is not a test it runs", target, cited)
				}
			}
		})
	}
}

// makeTarget returns the comment block right above target's rule in mk and
// its recipe with line continuations joined.
func makeTarget(t *testing.T, mk, target string) (comment, recipe string) {
	t.Helper()
	lines := strings.Split(mk, "\n")
	at := slices.IndexFunc(lines, func(l string) bool { return strings.HasPrefix(l, target+":") })
	if at < 0 {
		t.Fatalf("Makefile: no %s target", target)
	}
	var c, r []string
	for i := at - 1; i >= 0 && strings.HasPrefix(lines[i], "#"); i-- {
		c = append([]string{lines[i]}, c...)
	}
	for i := at + 1; i < len(lines) && strings.HasPrefix(lines[i], "\t"); i++ {
		r = append(r, strings.TrimSuffix(lines[i], "\\"))
	}
	return strings.Join(c, "\n"), strings.Join(r, " ")
}

// splitAlternatives expands a -run pattern into its alternatives, plain
// groups included: "A|B(c|d)" gives A, Bc, Bd. Anything fancier than a
// plain group fails to compile above and is reported.
func splitAlternatives(pattern string) []string {
	var out []string
	depth, start, open, shut := 0, 0, -1, -1 // open/shut: the alternative's first group
	flush := func(end int) {
		if open < 0 {
			out = append(out, pattern[start:end])
			return
		}
		for _, inner := range splitAlternatives(pattern[open+1 : shut]) {
			out = append(out, splitAlternatives(pattern[start:open]+inner+pattern[shut+1:end])...)
		}
	}
	for i, r := range pattern {
		switch r {
		case '(':
			if depth == 0 && open < 0 {
				open = i
			}
			depth++
		case ')':
			if depth--; depth == 0 && shut < 0 {
				shut = i
			}
		case '|':
			if depth == 0 {
				flush(i)
				start, open, shut = i+1, -1, -1
			}
		}
	}
	flush(len(pattern))
	return out
}
