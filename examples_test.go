package flymon

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

// ephemeralPort masks the one nondeterministic token an example prints: the
// port quickstart's daemon was given.
var ephemeralPort = regexp.MustCompile(`127\.0\.0\.1:\d+`)

// TestExamplesGolden builds every program under examples/ once and holds
// its stdout to testdata/examples/<name>.out, so a change to what the
// library answers shows up as a diff in the stories the examples tell.
// Refresh a golden file by running the example and masking its port.
func TestExamplesGolden(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	mains, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	bin := t.TempDir()
	if out, err := exec.Command(goTool, "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, m := range mains {
		name := filepath.Base(filepath.Dir(m))
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".out"))
			if err != nil {
				t.Fatal(err)
			}
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%v\n%s", err, stderr.Bytes())
			}
			if got := ephemeralPort.ReplaceAllString(stdout.String(), "127.0.0.1:PORT"); got != string(want) {
				t.Fatalf("stdout differs from the golden file:\n--- got\n%s--- want\n%s", got, want)
			}
		})
	}
}
