//go:build race

package tensor

// raceEnabled: the race detector's instrumentation changes the compiled Go
// bodies (see sameBits).
const raceEnabled = true
