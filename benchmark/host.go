package main

import "fmt"

// sink keeps the roof loops' results alive so the compiler cannot drop them.
var sink float32

// hostRoofs measures, in this process and at the start of the traced
// pass, the two roofs kernel rows are stated against: a STREAM-style
// copy of a buffer far larger than the caches, and a float32 add loop
// over a buffer that stays in L1.
func hostRoofs(b *bench) {
	const copyBytes = 64 << 20
	src := make([]byte, copyBytes)
	dst := make([]byte, copyBytes)
	for i := range src {
		src[i] = byte(i)
	}
	copy(dst, src) // touch every page before timing
	secs := b.spans.replay("host.copy", -1, 0, copyBytes, func() { copy(dst, src) })
	b.emit("host.copy_gbps", ratio(2*copyBytes, secs)/1e9, fmt.Sprintf("%d MiB buffer, bytes read + written", copyBytes>>20))

	const elems, passes = 2048, 4096
	x := make([]float32, elems)
	y := make([]float32, elems)
	for i := range x {
		x[i], y[i] = float32(i), 1
	}
	add := b.spans.replay("host.add", -1, 0, elems*passes, func() {
		for p := 0; p < passes; p++ {
			for i := range x {
				x[i] += y[i]
			}
		}
	})
	sink = x[elems/2]
	b.emit("host.add_gflops", ratio(elems*passes, add)/1e9, fmt.Sprintf("%d-element float32 buffer, %d passes", elems, passes))
}
