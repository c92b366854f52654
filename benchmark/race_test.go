//go:build race

package main

// raceDetector: the transformer decodes an order of magnitude slower, past
// the servers' 2 s request deadline, so fleet tests swap in a tiny one.
const raceDetector = true
