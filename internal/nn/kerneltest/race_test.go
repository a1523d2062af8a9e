//go:build race

package kerneltest

// raceEnabled is set in -race builds, where sync.Pool drops a share of
// released buffers at random, so allocation counts are not steady.
const raceEnabled = true
