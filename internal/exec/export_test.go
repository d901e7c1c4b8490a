package exec

// Test hooks for the external test package (fuzz_cov_test.go).
var (
	DiffSeeds = diffSeeds
	MemoDiff  = memoDiff
)
