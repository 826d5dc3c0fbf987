//go:build race

package client

// raceEnabled reports a -race build, whose instrumentation makes
// allocation counts meaningless as budgets.
const raceEnabled = true
