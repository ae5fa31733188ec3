// Package lib holds testonly golden cases.
package lib

// TestOnly is called only from lib_test.go.
func TestOnly() int { return 1 } // want `testonly: lib.TestOnly has no caller outside tests`

// Dead is a variable nothing reads.
var Dead = 2 // want `testonly: lib.Dead has no caller outside tests`

// Params is referenced only by its own methods.
type Params struct{ Step float64 } // want `testonly: lib.Params has no caller outside tests`

func (p Params) withDefaults() Params {
	if p.Step == 0 {
		p.Step = 1
	}
	return p
}

// Valid is an exported method of an unreferenced type; methods are
// out of scope, so only the type is reported.
func (p *Params) Valid() bool { return p.withDefaults().Step > 0 }

// Countdown refers only to itself.
func Countdown(n int) int { // want `testonly: lib.Countdown has no caller outside tests`
	if n == 0 {
		return 0
	}
	return Countdown(n - 1)
}

// Kind values: one used from cmd/, one not.
type Kind int

const (
	KindA Kind = iota
	KindB      // want `testonly: lib.KindB has no caller outside tests`
)

// RootUsed is called by the root package.
func RootUsed() int { return 3 }

// CmdUsed is called by a command.
func CmdUsed() int { return 4 }

// BenchUsed is called only by the nested bench module.
func BenchUsed() int { return 5 }

// InternalUsed is read by another internal package.
var InternalUsed = 6

// Model is used through the root package's alias.
type Model struct{}

// Seam is a deliberate test seam.
//
//m3vet:allow testonly -- tests substitute a fake clock through it
func Seam() int { return 7 }

func unexported() int { return 8 }
