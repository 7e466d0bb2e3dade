// Package lib is the fixture for TestNoTestOnlyExportsFollowsChains.
package lib

// Live is called from cmd/tool.
func Live() int { return helper() }

func helper() int { return Deep() }

// Deep is reached from cmd/tool through Live and helper.
func Deep() int { return 1 }

// Top is called only by lib_test.go.
func Top() int { return middle() }

func middle() int { return Leaf() }

// Leaf is called only by middle, which only the test-only Top calls.
func Leaf() int { return 2 }

var table = Build()

// Build runs in a package-level initializer.
func Build() []int { return nil }

// Kept is allowlisted.
func Kept() int { return Held() }

// Held is reached only through the allowlisted Kept.
func Held() int { return len(table) }
