//go:build race

package netwide

// raceEnabled reports a -race build: its sync.Pool drops a quarter of the
// buffers put back, so pool-reuse allocation bounds do not hold there.
const raceEnabled = true
