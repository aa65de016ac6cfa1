package tensor

import "fmt"

// Matrix is a dense, row-major matrix backed by a flat Vector. Rows are the
// batch dimension throughout the nn package: a forward pass maps a
// (batch × in) matrix to a (batch × out) matrix.
type Matrix struct {
	Rows, Cols int
	Data       Vector
}

// NewMatrix returns a zeroed Rows×Cols matrix.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: NewMatrix(%d, %d) negative dimension", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: NewVector(rows * cols)}
}

// EnsureMatrix returns a rows×cols matrix, reusing m's backing storage when
// it has enough capacity and allocating a fresh one otherwise. Contents are
// unspecified; callers that need zeroes must call Zero. This is the buffer
// hook behind the allocation-free training step: layers keep their output
// and gradient matrices across iterations and re-shape them per batch.
func EnsureMatrix(m *Matrix, rows, cols int) *Matrix {
	n := rows * cols
	if m == nil || cap(m.Data) < n {
		return NewMatrix(rows, cols)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:n]
	return m
}

// View overwrites m's header in place to be a rows×cols view over data
// (shared storage) and returns m. Unlike Reshape it allocates nothing, so
// hot paths can keep a view struct alive across iterations.
func (m *Matrix) View(data Vector, rows, cols int) *Matrix {
	if rows*cols != len(data) {
		panic(fmt.Sprintf("tensor: View %dx%d over %d elements", rows, cols, len(data)))
	}
	m.Rows, m.Cols, m.Data = rows, cols, data
	return m
}

// FromRows builds a matrix whose i-th row is rows[i]. All rows must share
// one length; it panics otherwise or when rows is empty.
func FromRows(rows []Vector) *Matrix {
	if len(rows) == 0 {
		panic("tensor: FromRows with no rows")
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("tensor: FromRows ragged row %d: %d vs %d", i, len(r), m.Cols))
		}
		copy(m.Row(i), r)
	}
	return m
}

// short reports whether m's backing slice is smaller than its shape: the
// assembly kernels address operands by shape alone, so the GEMM entry
// points refuse such a matrix where slicing a Row out of it would.
func (m *Matrix) short() bool { return len(m.Data) < m.Rows*m.Cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes the element at row i, column j.
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) Vector { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	return &Matrix{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Zero sets every element to 0.
func (m *Matrix) Zero() { m.Data.Zero() }

// Reshape returns a view of m with new dimensions sharing the same backing
// data. It panics if the element count changes.
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows*cols != len(m.Data) {
		panic(fmt.Sprintf("tensor: Reshape %dx%d incompatible with %d elements", rows, cols, len(m.Data)))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: m.Data}
}

// T returns the transpose of m as a new matrix.
func (m *Matrix) T() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, x := range row {
			t.Data[j*t.Cols+i] = x
		}
	}
	return t
}

// AddRowVector adds v to every row of m (bias broadcast). It panics if
// len(v) != m.Cols.
func (m *Matrix) AddRowVector(v Vector) {
	assertSameLen(m.Cols, len(v), "AddRowVector")
	for i := 0; i < m.Rows; i++ {
		m.Row(i).Add(v)
	}
}

// SumColumns writes the column sums of m into dst (the bias-gradient
// reduction). It panics if len(dst) != m.Cols.
func (m *Matrix) SumColumns(dst Vector) {
	assertSameLen(m.Cols, len(dst), "SumColumns")
	dst.Zero()
	for i := 0; i < m.Rows; i++ {
		dst.Add(m.Row(i))
	}
}

// Equal reports whether m and n have identical shape and elements.
func (m *Matrix) Equal(n *Matrix) bool {
	if m.Rows != n.Rows || m.Cols != n.Cols {
		return false
	}
	for i, x := range m.Data {
		if n.Data[i] != x {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer with a compact shape-only description;
// matrices are routinely too large to print element-wise.
func (m *Matrix) String() string {
	return fmt.Sprintf("Matrix(%dx%d)", m.Rows, m.Cols)
}
