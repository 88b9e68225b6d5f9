// Package tomod is the root package: its exported functions, and the
// exported methods of the types it exports or aliases, are program roots.
package tomod

import "tomod/lib"

// Aliased re-exports lib.Aliased; its exported methods are API.
type Aliased = lib.Aliased

// API is a root as an exported function of the root package.
func API() int { return lib.ViaAPI() }
