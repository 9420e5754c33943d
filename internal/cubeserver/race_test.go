//go:build race

package cubeserver

// raceEnabled reports that the race detector is active. The allocation
// guard skips under it: the race runtime intentionally defeats
// sync.Pool reuse, so alloc counts there measure the detector, not the
// code.
const raceEnabled = true
