// Package lib holds the fixture's live and dead functions.
package lib

// Setup runs from main's package init.
func Setup() {}

// Apply calls f.
func Apply(f func()) { f() }

// Visitor is only ever used as a value by live code: silent.
func Visitor() {}

// ViaExport is reached through the root package's export.
func ViaExport() int { return 1 }

// table's initialiser runs at start-up, so viaVar is a root.
var table = map[string]func(){"x": viaVar}

func viaVar() {}

// Shape is an interface the module declares.
type Shape interface{ Area() int }

// Square implements Shape.
type Square struct{}

// Area is called dynamically, if at all.
func (Square) Area() int { return 1 }

// Circle is never converted to Shape, but its Area is named like an
// interface method, so it may be called dynamically: silent.
type Circle struct{}

func (Circle) Area() int { return 3 }

// Dead has no caller.
func Dead() int { return helper() + Counter{}.bump() } // want "lib\.Dead is unreachable"

// helper is reachable only through Dead.
func helper() int { return 2 } // want "lib\.helper is unreachable"

// Counter's bump is only called by Dead.
type Counter struct{ n int }

func (c Counter) bump() int { return c.n + 1 } // want "\(unreachfix/lib\.Counter\)\.bump is unreachable"

// Kept has no caller but is kept on purpose.
//
//pgvn:allow unreachable: the fixture's suppressed case
func Kept() int { return keptHelper() }

// keptHelper is reached only from the suppressed Kept: silent.
func keptHelper() int { return 4 }
