// Package linalg generates the task graphs of the three tiled dense
// linear-algebra factorizations the paper evaluates on — Cholesky, LU and
// QR of a k×k tile matrix — with task weights derived from BLAS kernel
// costs.
//
// The paper uses kernel execution times measured by StarPU on an Nvidia
// Tesla M2070 GPU with tiles of size b=960 and reports an average task
// weight of ā ≈ 0.15 s. Those exact measurements are not public, so this
// package substitutes flop-proportional times with per-kernel GPU
// efficiency factors (GEMM-like kernels run near peak, panel
// factorizations far below it), scaled so the average task weight over a
// mid-size Cholesky DAG is ≈ 0.15 s. Because the paper calibrates the
// failure rate λ from pfail = 1 − e^{−λā}, every reported quantity depends
// only on relative task weights, which this substitution preserves (see
// DESIGN.md §4).
package linalg

import "fmt"

// Kernel identifies a BLAS/LAPACK tile kernel appearing in the three
// factorizations.
type Kernel int

// The tile kernels of the three factorizations, named as in the paper's
// Figures 1-3.
const (
	POTRF Kernel = iota // Cholesky panel: factor diagonal tile
	TRSM                // Cholesky triangular solve
	SYRK                // Cholesky symmetric rank-k update
	GEMM                // general tile multiply-accumulate (Cholesky + LU)
	GETRF               // LU panel: factor diagonal tile
	TRSML               // LU solve with L (column panel)
	TRSMU               // LU solve with U (row panel)
	GEQRT               // QR panel: factor diagonal tile
	TSQRT               // QR triangle-on-square factorization
	UNMQR               // QR apply Q to row panel
	TSMQR               // QR apply TS reflectors to trailing tile
	numKernels
)

var kernelNames = [numKernels]string{
	"POTRF", "TRSM", "SYRK", "GEMM",
	"GETRF", "TRSML", "TRSMU",
	"GEQRT", "TSQRT", "UNMQR", "TSMQR",
}

// String returns the kernel's conventional name.
func (k Kernel) String() string {
	if k < 0 || k >= numKernels {
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
	return kernelNames[k]
}

// flopsB3 is the classical flop count of each kernel in units of b³ (tile
// dimension cubed), double precision.
var flopsB3 = [numKernels]float64{
	POTRF: 1.0 / 3,
	TRSM:  1,
	SYRK:  1,
	GEMM:  2,
	GETRF: 2.0 / 3,
	TRSML: 1,
	TRSMU: 1,
	GEQRT: 4.0 / 3,
	TSQRT: 2,
	UNMQR: 2,
	TSMQR: 4,
}

// efficiency is the fraction of GEMM-normalized throughput each kernel
// achieves on a Fermi-class GPU: bandwidth-bound and branch-heavy panel
// kernels sit far below the dense-update kernels. The exact values shape
// only second-order details of the DAG critical path.
var efficiency = [numKernels]float64{
	POTRF: 0.10,
	TRSM:  0.80,
	SYRK:  0.90,
	GEMM:  1.00,
	GETRF: 0.12,
	TRSML: 0.80,
	TRSMU: 0.80,
	GEQRT: 0.10,
	TSQRT: 0.16,
	UNMQR: 0.75,
	TSMQR: 0.70,
}

// KernelTimes maps each kernel to its execution time in seconds.
type KernelTimes [numKernels]float64

// timeScale converts GEMM-relative cost (flops/efficiency, b³ units) into
// seconds such that the mean task weight of a mid-size Cholesky DAG is
// ≈ 0.15 s, the ā the paper reports.
const timeScale = 0.084

// DefaultKernelTimes returns the default per-kernel times (seconds):
// time(k) = timeScale · flops(k)/efficiency(k), flops in units of b³.
func DefaultKernelTimes() KernelTimes {
	var kt KernelTimes
	for k := Kernel(0); k < numKernels; k++ {
		kt[k] = timeScale * flopsB3[k] / efficiency[k]
	}
	return kt
}

// UniformKernelTimes returns kernel times all equal to w seconds; useful
// for isolating graph-structure effects in ablations.
func UniformKernelTimes(w float64) KernelTimes {
	var kt KernelTimes
	for k := Kernel(0); k < numKernels; k++ {
		kt[k] = w
	}
	return kt
}

// Scaled returns a copy of kt with every time multiplied by f.
func (kt KernelTimes) Scaled(f float64) KernelTimes {
	var out KernelTimes
	for i, v := range kt {
		out[i] = v * f
	}
	return out
}

// Time returns the execution time of kernel k.
func (kt KernelTimes) Time(k Kernel) float64 { return kt[k] }
