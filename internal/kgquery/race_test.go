//go:build race

package kgquery

// Under the race detector sync.Pool drops items at random, so a page
// that takes its executor from the pool allocates more than it does in
// a normal build.
func init() { raceEnabled = true }
