// Package unreachfix is the fixture module's root package: its exports
// are the library API, so they are roots even with no caller.
package unreachfix

import "unreachfix/lib"

// Exported is a root-package export nobody calls: silent, and so is
// what it calls.
func Exported() int { return lib.ViaExport() }
