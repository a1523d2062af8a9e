//go:build !race

package kerneltest

const raceEnabled = false
