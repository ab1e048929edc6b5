//go:build !race

package admit_test

const raceEnabled = false
