//go:build race

package nn

// raceEnabled mirrors the race build tag for tests whose assertions are
// invalid under the race detector.
const raceEnabled = true
