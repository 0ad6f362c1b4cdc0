package flymon

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	chaosRunPattern = regexp.MustCompile(`(?s)\nchaos:\n.*?-run '([^']+)'[^\n]*\n((?:\t[^\n]*\n)*)`)
	testFuncName    = regexp.MustCompile(`(?m)^func (Test\w+)\(`)
)

// TestChaosPatternMatchesTests keeps `make chaos` honest: every alternative
// of its -run pattern must still select at least one test in the packages
// the target names, so a renamed or deleted drill cannot silently drop out
// of the gate.
func TestChaosPatternMatchesTests(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	m := chaosRunPattern.FindSubmatch(mk)
	if m == nil {
		t.Fatal("Makefile: no chaos target with a -run '…' pattern")
	}
	dirs := strings.Fields(string(m[2]))
	var names []string
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
		if err != nil || len(files) == 0 {
			t.Fatalf("chaos target names %s, which has no test files (%v)", dir, err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, fn := range testFuncName.FindAllSubmatch(src, -1) {
				names = append(names, string(fn[1]))
			}
		}
	}
	for _, alt := range splitAlternatives(string(m[1])) {
		re, err := regexp.Compile(alt)
		if err != nil {
			t.Errorf("chaos -run alternative %q: %v", alt, err)
			continue
		}
		matched := false
		for _, n := range names {
			if matched = re.MatchString(n); matched {
				break
			}
		}
		if !matched {
			t.Errorf("chaos -run alternative %q matches no test in %s", alt, strings.Join(dirs, " "))
		}
	}
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
