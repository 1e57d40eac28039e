//go:build !race

package testkit

// RaceEnabled is true when the binary was built with -race.
const RaceEnabled = false
