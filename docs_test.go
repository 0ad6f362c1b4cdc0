package flymon

import (
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
)

// TestDocsReferenceExistingFiles keeps "no document references a file that
// is not in the tree" true: every back-ticked *.go|*.txt|*.md|*.json path
// in the operator-facing documents must name a file that exists (a path
// with a directory is repo-relative; a bare name may live in any package),
// and every `make <target>` in inline code or a fenced block must be a
// Makefile target.
func TestDocsReferenceExistingFiles(t *testing.T) {
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
