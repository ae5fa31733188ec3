package lib

import "testing"

// References from tests do not count: the loader reads no test file.
func TestCalls(t *testing.T) {
	_ = TestOnly() + Dead + Countdown(2) + Seam() + unexported()
	_ = (&Params{}).Valid()
	_ = KindB
}
