//go:build race

package core

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop items at random, so the pooled kernel allocates under it and
// allocation gates must not run.
const raceEnabled = true
