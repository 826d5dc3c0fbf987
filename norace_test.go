//go:build !race

package fxdist_test

const raceEnabled = false
