package la

// SetParallelThreshold sets the work cutoff below which kernels stay serial
// and returns the old one, so tests outside the package can force the pool
// paths on small inputs.
func SetParallelThreshold(n int) int {
	old := parallelThreshold
	parallelThreshold = n
	return old
}
