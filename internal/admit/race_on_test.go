//go:build race

package admit_test

// raceEnabled trims the long differential inputs under the race detector,
// which slows the analysis kernels several-fold.
const raceEnabled = true
