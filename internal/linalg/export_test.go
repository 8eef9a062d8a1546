package linalg

// Hooks for the external tests, which build their inputs from packages
// that import linalg.
var (
	ExpIntoFallback    = expInto
	ExpKernelAvailable = func() bool { return expAvailable }
)
