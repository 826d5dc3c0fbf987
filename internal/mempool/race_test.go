//go:build race

package mempool

// raceEnabled reports a -race build, where sync.Pool drops a share of
// Puts on purpose, so allocation budgets cannot hold.
const raceEnabled = true
