// Package hotfix is a module of one package with exactly one finding: a slice
// literal inside a //hepccl:hotpath function, which hotpathalloc reports and
// nothing else does (the compiler keeps the literal on the stack).
package hotfix

//hepccl:hotpath
func Sum3(a, b, c int) int {
	xs := []int{a, b, c}
	return xs[0] + xs[1] + xs[2]
}
