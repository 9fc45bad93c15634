//go:build race

package core

// raceEnabled lets timing pins skip under the race detector, whose
// instrumentation distorts relative datapath costs (compute-bound paths
// slow far more than I/O-bound ones).
const raceEnabled = true
