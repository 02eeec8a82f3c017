//go:build !amd64

package tensor

import "mpgraph/internal/invariant"

// useAVX512F is always false off amd64: the batch tier delegates to the
// exact scalar kernels.
var useAVX512F = false

//mpgraph:noalloc
func batchKernelAvailable() bool { return false }

func fmaPanels(out, a, b []float64, m, k, n int) {
	invariant.Fail("tensor: fmaPanels requires the amd64 batch kernels")
}

func vexpRow(row []float64, bias float64) {
	invariant.Fail("tensor: vexpRow requires the amd64 batch kernels")
}

func vsigmoidRow(row []float64) {
	invariant.Fail("tensor: vsigmoidRow requires the amd64 batch kernels")
}

func vtanhRow(row []float64) {
	invariant.Fail("tensor: vtanhRow requires the amd64 batch kernels")
}
