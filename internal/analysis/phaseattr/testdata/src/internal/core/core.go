// Package core is a phaseattr fixture standing in for the dump/restore
// pipeline package: its path suffix puts every function in rule 1 scope.
package core

import "internal/collectives"

// dumpUnphased blocks without ever publishing a phase.
func dumpUnphased(c collectives.Comm) error {
	return collectives.Barrier(c) // want "blocking collective Barrier without a preceding NotePhase"
}

// dumpPhased publishes the phase first: clean.
func dumpPhased(c collectives.Comm) error {
	collectives.NotePhase(c, "barrier")
	return collectives.Barrier(c)
}

// gatherUnphased exercises a second entry point of the blocking set.
func gatherUnphased(c collectives.Comm, b []byte) ([][]byte, error) {
	return collectives.Gather(c, 0, b) // want "blocking collective Gather without a preceding NotePhase"
}

// reduceHelper runs with the phase already published by its caller.
//
//dedupvet:phased
func reduceHelper(c collectives.Comm) error {
	return collectives.Barrier(c)
}

// waitUnphased blocks on the one-sided window.
func waitUnphased(w *collectives.Window) error {
	return w.Wait() // want "blocking collective Window.Wait without a preceding NotePhase"
}

// nextUnphased drains the window frame by frame without a phase.
func nextUnphased(w *collectives.Window) ([]byte, error) {
	return w.Next() // want "blocking collective Window.Next without a preceding NotePhase"
}

// restoreUnphased mirrors the restore pipeline's completion barrier:
// blocking without publishing any restore phase first.
func restoreUnphased(c collectives.Comm) error {
	return collectives.Barrier(c) // want "blocking collective Barrier without a preceding NotePhase"
}

// restorePhased walks the restore pipeline's phase sequence; the barrier
// is covered by the phases published earlier in the same function.
func restorePhased(c collectives.Comm) error {
	collectives.NotePhase(c, "restore-meta")
	collectives.NotePhase(c, "assemble")
	collectives.NotePhase(c, "restore-barrier")
	return collectives.Barrier(c)
}

// restoreTelemetryGather mirrors GatherClusterRestore: the in-band
// metrics gather publishes its own phase before blocking.
func restoreTelemetryGather(c collectives.Comm, enc []byte) ([][]byte, error) {
	collectives.NotePhase(c, "restore-telemetry")
	return collectives.Gather(c, 0, enc)
}

// restoreTelemetryUnphased is the same gather with the phase dropped —
// a telemetry failure would be misattributed to the preceding phase.
func restoreTelemetryUnphased(c collectives.Comm, enc []byte) ([][]byte, error) {
	return collectives.Gather(c, 0, enc) // want "blocking collective Gather without a preceding NotePhase"
}

// fetchServeLoop is a caller-phased helper like the fetch service's
// serve loop: the restore pipeline already published "assemble" when the
// fetch RPCs block.
//
//dedupvet:phased
func fetchServeLoop(c collectives.Comm) error {
	return collectives.Barrier(c)
}
