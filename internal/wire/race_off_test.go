//go:build !race

package wire

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so exact-zero allocation gates skip
// themselves when it is.
const raceEnabled = false
