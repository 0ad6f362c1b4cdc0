//go:build !race

package netwide

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
