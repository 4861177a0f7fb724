//go:build race

package compile

// raceEnabled reports whether the test binary was built with the race
// detector, whose runtime changes allocation counts: it drops a share of
// sync.Pool puts on purpose.
const raceEnabled = true
