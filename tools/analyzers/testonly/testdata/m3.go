// Package m3 is the root package: its references count.
package m3

import "m3/internal/lib"

// Model re-exports a type the way the real root package aliases
// internal ones.
type Model = lib.Model

// Run calls into internal/.
func Run() int { return lib.RootUsed() }
