package testonly_test

import (
	"testing"

	"m3/tools/analyzers/analysistest"
	"m3/tools/analyzers/testonly"
)

func TestTestOnly(t *testing.T) {
	analysistest.Run(t, "testdata", testonly.Analyzer)
}
