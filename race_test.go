//go:build race

package pgvn

// raceEnabled reports whether the race detector is on. Allocation guards
// loosen their pooled ceilings under it: sync.Pool drops a quarter of its
// Puts on purpose when race detection is enabled.
const raceEnabled = true
