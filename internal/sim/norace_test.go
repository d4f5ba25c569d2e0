//go:build !race

package sim

// raceEnabled reports a build with the race detector, under which
// sync.Pool drops a quarter of what is put into it at random.
const raceEnabled = false
