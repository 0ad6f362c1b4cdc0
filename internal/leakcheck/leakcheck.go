// Package leakcheck fails a test binary whose goroutines outlive its tests.
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// Main runs m's tests and exits with their code, or with 1 when they pass
// but the goroutine count does not settle back to its value before the
// first test within five seconds; it then prints every goroutine's stack.
// Every server, client, controller and pool a test starts must be closed
// by the test or its cleanups. A package gates itself with
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
func Main(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		deadline := time.Now().Add(5 * time.Second)
		for now := runtime.NumGoroutine(); now > before; now = runtime.NumGoroutine() {
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				fmt.Fprintf(os.Stderr, "goroutine leak: %d goroutines before the tests, %d after\n%s", before, now, buf[:n])
				code = 1
				break
			}
			runtime.GC()
			time.Sleep(25 * time.Millisecond)
		}
	}
	os.Exit(code)
}
