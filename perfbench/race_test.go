//go:build race

package main

// raceEnabled: under the race detector the workloads run too slowly
// for every window to hold the samples a p99 needs.
const raceEnabled = true
