//go:build race

package dismem

// raceDetector reports whether this binary was built with -race, for
// the package's internal tests (race_on_test.go is the external
// tests'): the single-goroutine byte oracles skip then.
const raceDetector = true
