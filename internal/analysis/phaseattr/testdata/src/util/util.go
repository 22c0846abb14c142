// Package util is outside the pipeline scope: blocking collectives here
// need no NotePhase.
package util

import "internal/collectives"

// Sync blocks with no phase: fine outside internal/core and
// internal/telemetry.
func Sync(c collectives.Comm) error {
	return collectives.Barrier(c)
}
