// Command app is the fixture module's only binary. Exported names in a
// main package are never reported.
package main

import (
	"fmt"

	"deadexport/lib"
)

// Exported is unused but lives in package main.
func Exported() {}

func main() {
	var s lib.Shape = lib.Square{Side: 2}
	fmt.Println(s.Area(), lib.Shared())
}
