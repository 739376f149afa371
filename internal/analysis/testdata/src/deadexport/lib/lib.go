// Package lib exercises the deadexport analyzer. The fixture is its own
// module (see ../go.mod), so a ./... load of it covers the whole module
// and "no reference" means dead.
package lib

import "fmt"

// Shape is satisfied by Square; calls through it reach Area.
type Shape interface{ Area() float64 }

// Square is used by package app.
type Square struct{ Side float64 }

// Area satisfies Shape: kept although nothing names it directly.
func (s Square) Area() float64 { return s.Side * s.Side }

// String satisfies fmt.Stringer, declared outside the module.
func (s Square) String() string { return fmt.Sprintf("square(%g)", s.Side) }

func (s Square) Perimeter() float64 { return 4 * s.Side } // want: exported method Square.Perimeter

// Shared is called from package app.
func Shared() int { return helper() + UsedHere }

// UsedHere is referenced by Shared in this package.
const UsedHere = 2

func helper() int { return 1 }

func Dead() {} // want: exported func Dead

// OnlyTested has a caller in lib_test.go only, which the loader skips.
func OnlyTested() int { return 3 } // want: exported func OnlyTested

// Recursive refers only to itself.
func Recursive(n int) int { // want: exported func Recursive
	if n <= 0 {
		return 0
	}
	return Recursive(n - 1)
}

// Orphan is only named by its own method's receiver.
type Orphan struct{} // want: exported type Orphan

func (Orphan) Method() {} // want: exported method Orphan.Method

const DeadConst = 1 // want: exported const DeadConst

var DeadVar int // want: exported var DeadVar

//pimdl:lint-ignore deadexport kept as the serial oracle of a test
func Oracle() int { return 4 }
