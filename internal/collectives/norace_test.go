//go:build !race

package collectives

// raceEnabled: see race_test.go.
const raceEnabled = false
