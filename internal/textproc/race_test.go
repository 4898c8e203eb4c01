//go:build race

package textproc

// Under the race detector sync.Pool drops items at random, so pooled
// paths allocate more than they do in a normal build.
func init() { raceEnabled = true }
