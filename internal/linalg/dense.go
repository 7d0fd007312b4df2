package linalg

import (
	"fmt"
	"runtime"
	"sync"
)

// Dense is a row-major dense matrix of float64. The zero value is an
// empty matrix; use NewDense to allocate.
type Dense struct {
	Rows, Cols int
	Data       []float64 // length Rows*Cols, row-major
}

// NewDense allocates a rows×cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: NewDense with negative dims %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFrom wraps data (without copying) as a rows×cols matrix. It
// panics if len(data) != rows*cols.
func NewDenseFrom(rows, cols int, data []float64) *Dense {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("linalg: NewDenseFrom: %d elements for %dx%d", len(data), rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: data}
}

// Resize returns d reshaped to rows×cols, reusing its backing array
// when capacity allows and allocating a new matrix otherwise (also
// when d is nil). Contents are unspecified.
func Resize(d *Dense, rows, cols int) *Dense {
	need := rows * cols
	if d == nil || cap(d.Data) < need {
		return NewDense(rows, cols)
	}
	d.Rows, d.Cols, d.Data = rows, cols, d.Data[:need]
	return d
}

// At returns the element at (i, j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set stores v at (i, j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Dense) T() *Dense {
	out := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			out.Data[j*m.Rows+i] = v
		}
	}
	return out
}

// MulVec computes y = M·x. It panics on dimension mismatch.
func (m *Dense) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec: %dx%d by vector of %d", m.Rows, m.Cols, len(x)))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		y[i] = Dot(m.Row(i), x)
	}
	return y
}

// matmulParallelThreshold is the flop count above which MatMul fans
// out across goroutines. Small products are cheaper single-threaded.
const matmulParallelThreshold = 1 << 16

// MatMul returns A·B. It panics on dimension mismatch. Large products
// are computed in parallel across row blocks.
func MatMul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("linalg: MatMul %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes out = A·B into a preallocated matrix, avoiding
// an allocation on hot paths. out must be a.Rows×b.Cols and must not
// alias a or b.
func MatMulInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulInto %dx%d = %dx%d by %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	flops := a.Rows * a.Cols * b.Cols
	if flops < matmulParallelThreshold {
		matMulRange(out, a, b, 0, a.Rows)
		return
	}
	ParallelFor(a.Rows, func(lo, hi int) { matMulRange(out, a, b, lo, hi) })
}

// MatMulSerialInto computes out = A·B into a preallocated matrix on
// the calling goroutine only — no fan-out regardless of size. Callers
// that are themselves worker tasks (the funcsim tile pipeline) use it
// to keep nested parallelism and per-call allocations at zero.
func MatMulSerialInto(out, a, b *Dense) {
	if a.Cols != b.Rows || out.Rows != a.Rows || out.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulSerialInto %dx%d = %dx%d by %dx%d",
			out.Rows, out.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	matMulRange(out, a, b, 0, a.Rows)
}

// matMulRange computes rows [lo,hi) of out = A·B using an ikj loop
// order, which streams through B rows and is cache-friendly without
// explicit blocking.
func matMulRange(out, a, b *Dense, lo, hi int) {
	n := b.Cols
	for i := lo; i < hi; i++ {
		orow := out.Data[i*n : (i+1)*n]
		for t := range orow {
			orow[t] = 0
		}
		arow := a.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*n : (k+1)*n]
			for j, bv := range brow {
				orow[j] += av * bv
			}
		}
	}
}

// MatMulATB returns Aᵀ·B without materializing the transpose.
func MatMulATB(a, b *Dense) *Dense {
	if a.Rows != b.Rows {
		panic(fmt.Sprintf("linalg: MatMulATB %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Cols, b.Cols)
	// out[k][j] = sum_i a[i][k] b[i][j]. Parallelize over k-ranges by
	// accumulating per-worker into disjoint output rows: iterate i
	// outer, k inner restricted to the worker's range.
	ParallelFor(a.Cols, func(lo, hi int) {
		n := b.Cols
		for i := 0; i < a.Rows; i++ {
			arow := a.Row(i)
			brow := b.Data[i*n : (i+1)*n]
			for k := lo; k < hi; k++ {
				av := arow[k]
				if av == 0 {
					continue
				}
				orow := out.Data[k*n : (k+1)*n]
				for j, bv := range brow {
					orow[j] += av * bv
				}
			}
		}
	})
	return out
}

// MatMulABT returns A·Bᵀ without materializing the transpose.
func MatMulABT(a, b *Dense) *Dense {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("linalg: MatMulABT %dx%d by %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewDense(a.Rows, b.Rows)
	ParallelFor(a.Rows, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			arow := a.Row(i)
			orow := out.Row(i)
			for j := 0; j < b.Rows; j++ {
				orow[j] = Dot(arow, b.Row(j))
			}
		}
	})
	return out
}

// ParallelFor splits [0, n) into contiguous chunks and runs body on
// each chunk from its own goroutine, returning when all complete. It
// uses at most GOMAXPROCS workers and degrades to a direct call for
// tiny n.
func ParallelFor(n int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			body(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
