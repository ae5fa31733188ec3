// Package pub is outside internal/: its exports are public API and
// never reported.
package pub

// Unused has no caller, but importers outside the module may call it.
func Unused() {}
