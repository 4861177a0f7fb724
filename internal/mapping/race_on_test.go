//go:build race

package mapping

// raceEnabled reports whether the test binary was built with the race
// detector, which slows the large single-goroutine simulations by an order
// of magnitude without having a second goroutine to check.
const raceEnabled = true
