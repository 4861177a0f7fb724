//go:build !race

package mapping

// raceEnabled reports whether the test binary was built with the race
// detector. See race_on_test.go.
const raceEnabled = false
