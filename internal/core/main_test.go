package core

import (
	"testing"

	"flymon/internal/leakcheck"
)

// TestMain fails the package when goroutines outlive its tests.
func TestMain(m *testing.M) {
	leakcheck.Main(m)
}
