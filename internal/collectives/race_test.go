//go:build race

package collectives

// raceEnabled reports whether the tests run under the race detector,
// whose instrumentation allocates on its own: allocation counts are not
// asserted there.
const raceEnabled = true
