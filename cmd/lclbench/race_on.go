//go:build race

package main

// raceEnabled reports a binary built with the race detector.
const raceEnabled = true
