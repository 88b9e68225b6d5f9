package lib

import (
	"encoding/json"
	"fmt"
)

// Used is reached from main. It hands values to fmt and encoding/json, so
// the program imports the packages whose interfaces call String and
// MarshalJSON, and it prints a Label.
func Used() {
	var s Shape = Square{}
	b, _ := json.Marshal(s.Area())
	fmt.Println(string(b), Label{})
}

// OnlyTests is called only from lib_test.go.
func OnlyTests() int { return ViaOnlyTests() } // want testonly

// ViaOnlyTests is reached only through OnlyTests.
func ViaOnlyTests() int { return 1 } // want testonly

func unexportedDead() {} // want testonly

// Shape is a module interface.
type Shape interface{ Area() int }

// Square's Area is reached only through a call on a Shape.
type Square struct{}

func (Square) Area() int { return 4 }

// Circle implements Shape too, so the Shape call in Used reaches it.
type Circle struct{}

func (Circle) Area() int { return 3 }

// Perimeter is a Square method no interface and no call reaches.
func (Square) Perimeter() int { return 16 } // want testonly

// Label's String and MarshalJSON are called by the standard library: a
// program prints a Label.
type Label struct{}

func (Label) String() string { return "label" }

func (Label) MarshalJSON() ([]byte, error) { return []byte(`"label"`), nil }

// Tally is a fmt.Stringer only tests hold a value of, so the standard
// library never calls its String for a program.
type Tally struct{ n int }

func (t Tally) String() string { return fmt.Sprint(t.n) } // want testonly

// Gauge is held only by a package-level initializer, which runs before
// main: the standard library may call its String.
type Gauge struct{}

func (Gauge) String() string { return "gauge" }

var defaultGauge = Gauge{}

// table is a package-level initializer: fromInit is reached through it.
var table = map[string]func() int{"a": fromInit}

func fromInit() int { return 9 }

// init is a root: initOnly is reached through it.
func init() { initOnly() }

func initOnly() {}

// Fixture is test support that tests of several packages use.
//
//lint:testonly fixture: tests build their inputs with it
func Fixture() int { return fixtureHelper() }

func fixtureHelper() int { return 2 }

// Bare carries a mark without a reason.
//
//lint:testonly
func Bare() {} // want testonly

// Stale carries a mark although main reaches it.
//
//lint:testonly stale: main calls it
func Stale() {} // want testonly

// ViaAPI is reached from the root package's API.
func ViaAPI() int { return 5 }

// Aliased is re-exported by the root package.
type Aliased struct{}

// Method is API through the root package's alias.
func (Aliased) Method() int { return 6 }

func (Aliased) internal() int { return 7 } // want testonly

// BenchOnly is called only by the nested benchmark module.
func BenchOnly() int { return 8 }
