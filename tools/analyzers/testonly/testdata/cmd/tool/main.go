// Command tool is a caller under cmd/.
package main

import "m3/internal/lib"

func main() { println(lib.CmdUsed(), lib.KindA) }
