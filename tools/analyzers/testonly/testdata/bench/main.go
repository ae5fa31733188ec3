// Command bench sits in a nested module, like the repository's
// benchmark/: what it alone imports is still called.
package main

import "m3/internal/lib"

func main() { println(lib.BenchUsed()) }
