package rpc

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestMain fails the package when goroutines outlive its tests. Every
// server, client and controller a test starts is closed by the test's
// cleanups, so once m.Run returns the goroutine count must settle back to
// its value before the first test; a controller left open shows here as
// its pool workers.
func TestMain(m *testing.M) {
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
