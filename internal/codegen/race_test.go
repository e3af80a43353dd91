//go:build race

package codegen

// raceEnabled: the race detector's instrumentation allocates on its own
// (Generate counts ~20 % more under it), so TestGenerateAllocs counts only in
// a plain build.
const raceEnabled = true
