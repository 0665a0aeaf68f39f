//go:build race

package core

// raceEnabled reports that the race detector is on. Its sync.Pool drops a
// quarter of all Puts on purpose, so byte budgets that count on pooling are
// logged but not enforced.
const raceEnabled = true
