// Package other references lib from another internal package.
package other

import "m3/internal/lib"

func helper() int { return lib.InternalUsed }
