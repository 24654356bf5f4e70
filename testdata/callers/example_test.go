package main_test

import "fixture/internal/fix"

func Example_shown() {
	fix.Shown()
	// Output:
}
