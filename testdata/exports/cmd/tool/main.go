// Command tool is the fixture's non-internal root.
package main

import (
	"fmt"

	"example.com/exports/internal/lib"
)

func main() { fmt.Println(lib.Live()) }
