//go:build !race

package dismem

// raceDetector is false in ordinary builds; see race_on_internal_test.go.
const raceDetector = false
