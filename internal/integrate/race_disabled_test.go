//go:build !race

package integrate

const raceEnabled = false
