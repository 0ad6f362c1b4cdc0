package flymon

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets keeps the frozen benchmark harness inside tier-1:
// bench/ is its own module, so `go build ./... && go test ./...` at the
// root never compiles it, and a change that deletes or renames something
// the harness calls would strand BENCHMARK.json's command unseen. Vetting
// the module type-checks every package in it, tests included, against this
// checkout; it reads bench/ and writes nothing there.
func TestBenchModuleVets(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	if out, err := exec.Command(goTool, "vet", "-C", "bench", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
