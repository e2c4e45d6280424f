//! Owned row-major matrices and strided views.
//!
//! [`Matrix`] owns its storage. [`MatRef`] and [`MatMut`] are lightweight
//! (pointer, rows, cols, row-stride) views used by every kernel so that
//! blocked algorithms can operate on submatrices without copying. `MatMut`
//! supports disjoint splitting ([`MatMut::split_quad`] and friends), which is
//! what the recursive Cholesky/QR kernels are built on.

use std::fmt;
use std::marker::PhantomData;

/// An owned, row-major, dense `f64` matrix.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of the (row, col) index.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Matrix { rows, cols, data }
    }

    /// Wraps an existing row-major buffer. Panics if `data.len() != rows*cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline]
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning its buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// Immutable view of the whole matrix.
    #[inline]
    pub fn as_ref(&self) -> MatRef<'_> {
        MatRef {
            ptr: self.data.as_ptr(),
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            _life: PhantomData,
        }
    }

    /// Mutable view of the whole matrix.
    #[inline]
    pub fn as_mut(&mut self) -> MatMut<'_> {
        MatMut {
            ptr: self.data.as_mut_ptr(),
            rows: self.rows,
            cols: self.cols,
            stride: self.cols,
            _life: PhantomData,
        }
    }

    /// Immutable view of the `nr × nc` submatrix anchored at `(r0, c0)`.
    pub fn view(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'_> {
        self.as_ref().sub(r0, c0, nr, nc)
    }

    /// Mutable view of the `nr × nc` submatrix anchored at `(r0, c0)`.
    pub fn view_mut(&mut self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'_> {
        self.as_mut().sub(r0, c0, nr, nc)
    }

    /// Returns a newly allocated transpose.
    pub fn transposed(&self) -> Matrix {
        self.as_ref().to_owned_transposed()
    }

    /// Copies the contents of `src` (same shape) into `self`.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        self.as_mut().copy_from(src);
    }

    /// Materializes a view into an owned matrix.
    pub fn from_view(v: MatRef<'_>) -> Matrix {
        let mut m = Matrix::zeros(v.rows(), v.cols());
        m.as_mut().copy_from(v);
        m
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let rmax = self.rows.min(8);
        let cmax = self.cols.min(8);
        for i in 0..rmax {
            write!(f, "  ")?;
            for j in 0..cmax {
                write!(f, "{:>12.5e} ", self.get(i, j))?;
            }
            writeln!(f, "{}", if self.cols > cmax { "..." } else { "" })?;
        }
        if self.rows > rmax {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

/// Immutable strided view into matrix storage.
#[derive(Clone, Copy)]
pub struct MatRef<'a> {
    ptr: *const f64,
    rows: usize,
    cols: usize,
    stride: usize,
    _life: PhantomData<&'a f64>,
}

// SAFETY: MatRef is a shared, read-only view; aliasing reads are fine.
unsafe impl Send for MatRef<'_> {}
unsafe impl Sync for MatRef<'_> {}

/// So entry points can take `impl Into<MatRef>`: a `&Matrix`, or a view of
/// storage that is not a `Matrix` (a stream's row history, a cyclic block).
impl<'a> From<&'a Matrix> for MatRef<'a> {
    fn from(m: &'a Matrix) -> MatRef<'a> {
        m.as_ref()
    }
}

impl<'a> MatRef<'a> {
    /// Views a row-major slice of exactly `rows · cols` elements as a
    /// contiguous matrix.
    pub fn from_slice(data: &'a [f64], rows: usize, cols: usize) -> MatRef<'a> {
        assert_eq!(data.len(), rows * cols, "slice length must be rows x cols");
        MatRef {
            ptr: data.as_ptr(),
            rows,
            cols,
            stride: cols,
            _life: PhantomData,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance in elements between consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Element access.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        unsafe { *self.ptr.add(i * self.stride + j) }
    }

    /// Row `i` as a slice of length `cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f64] {
        debug_assert!(i < self.rows);
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Sub-view of shape `nr × nc` anchored at `(r0, c0)`.
    pub fn sub(self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatRef<'a> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "sub view out of bounds");
        MatRef {
            ptr: unsafe { self.ptr.add(r0 * self.stride + c0) },
            rows: nr,
            cols: nc,
            stride: self.stride,
            _life: PhantomData,
        }
    }

    /// Every `step`-th row starting at row `first`, all columns: the view's
    /// row stride is multiplied, nothing moves. The row-cyclic block of a
    /// row-major matrix over `p` owners is `step_rows(owner, p)`.
    pub fn step_rows(self, first: usize, step: usize) -> MatRef<'a> {
        assert!(step > 0, "row step must be positive");
        let tail = self.sub(first.min(self.rows), 0, self.rows.saturating_sub(first), self.cols);
        MatRef {
            rows: tail.rows.div_ceil(step),
            stride: tail.stride * step,
            ..tail
        }
    }

    /// Copies this view into a fresh owned matrix.
    pub fn to_owned(self) -> Matrix {
        Matrix::from_view(self)
    }

    /// Copies the transpose of this view into a fresh owned matrix.
    pub fn to_owned_transposed(self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        t.as_mut().copy_transposed_from(self);
        t
    }
}

/// Mutable strided view into matrix storage.
///
/// Built on a raw pointer so that disjoint sub-views can coexist (see
/// [`MatMut::split_quad`]); all splitting APIs enforce disjointness.
pub struct MatMut<'a> {
    ptr: *mut f64,
    rows: usize,
    cols: usize,
    stride: usize,
    _life: PhantomData<&'a mut f64>,
}

// SAFETY: MatMut is an exclusive view (&mut-like); ownership moves with it.
unsafe impl Send for MatMut<'_> {}

impl<'a> MatMut<'a> {
    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Distance in elements between consecutive rows.
    #[inline]
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Element access.
    #[inline]
    pub fn at(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        unsafe { *self.ptr.add(i * self.stride + j) }
    }

    /// Element assignment.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        unsafe { *self.ptr.add(i * self.stride + j) = v }
    }

    /// Row `i` as a mutable slice of length `cols`.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        unsafe { std::slice::from_raw_parts_mut(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Row `i` as a shared slice of length `cols`.
    #[inline]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        unsafe { std::slice::from_raw_parts(self.ptr.add(i * self.stride), self.cols) }
    }

    /// Reassembles a view from raw parts.
    ///
    /// # Safety
    ///
    /// `ptr` must be valid for reads and writes of every element addressed
    /// by `(rows, cols, stride)` for the lifetime `'a`, and the caller must
    /// guarantee no other live view aliases those elements mutably.
    #[inline]
    pub unsafe fn from_raw_parts(ptr: *mut f64, rows: usize, cols: usize, stride: usize) -> MatMut<'a> {
        MatMut {
            ptr,
            rows,
            cols,
            stride,
            _life: PhantomData,
        }
    }

    /// Reborrows as an immutable view.
    #[inline]
    pub fn rb(&self) -> MatRef<'_> {
        MatRef {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            _life: PhantomData,
        }
    }

    /// Reborrows as a shorter-lived mutable view.
    #[inline]
    pub fn rb_mut(&mut self) -> MatMut<'_> {
        MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: self.cols,
            stride: self.stride,
            _life: PhantomData,
        }
    }

    /// Consumes the view, returning the `nr × nc` sub-view at `(r0, c0)`.
    pub fn sub(self, r0: usize, c0: usize, nr: usize, nc: usize) -> MatMut<'a> {
        assert!(r0 + nr <= self.rows && c0 + nc <= self.cols, "sub view out of bounds");
        MatMut {
            ptr: unsafe { self.ptr.add(r0 * self.stride + c0) },
            rows: nr,
            cols: nc,
            stride: self.stride,
            _life: PhantomData,
        }
    }

    /// Splits into (top, bottom) at row `r`.
    pub fn split_rows(self, r: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(r <= self.rows);
        let top = MatMut {
            ptr: self.ptr,
            rows: r,
            cols: self.cols,
            stride: self.stride,
            _life: PhantomData,
        };
        let bot = MatMut {
            ptr: unsafe { self.ptr.add(r * self.stride) },
            rows: self.rows - r,
            cols: self.cols,
            stride: self.stride,
            _life: PhantomData,
        };
        (top, bot)
    }

    /// Splits into (left, right) at column `c`.
    pub fn split_cols(self, c: usize) -> (MatMut<'a>, MatMut<'a>) {
        assert!(c <= self.cols);
        let left = MatMut {
            ptr: self.ptr,
            rows: self.rows,
            cols: c,
            stride: self.stride,
            _life: PhantomData,
        };
        let right = MatMut {
            ptr: unsafe { self.ptr.add(c) },
            rows: self.rows,
            cols: self.cols - c,
            stride: self.stride,
            _life: PhantomData,
        };
        (left, right)
    }

    /// Splits into four disjoint quadrants at `(r, c)`:
    /// `(A11, A12, A21, A22)`.
    pub fn split_quad(self, r: usize, c: usize) -> (MatMut<'a>, MatMut<'a>, MatMut<'a>, MatMut<'a>) {
        let (top, bot) = self.split_rows(r);
        let (a11, a12) = top.split_cols(c);
        let (a21, a22) = bot.split_cols(c);
        (a11, a12, a21, a22)
    }

    /// Copies the contents of `src` (same shape) into this view.
    pub fn copy_from(&mut self, src: MatRef<'_>) {
        assert_eq!(
            (self.rows, self.cols),
            (src.rows(), src.cols()),
            "copy_from shape mismatch"
        );
        for i in 0..self.rows {
            self.row_mut(i).copy_from_slice(src.row(i));
        }
    }

    /// Copies the transpose of `src` (`cols × rows`) into this view.
    pub fn copy_transposed_from(&mut self, src: MatRef<'_>) {
        assert_eq!(
            (self.rows, self.cols),
            (src.cols(), src.rows()),
            "copy_transposed_from shape mismatch"
        );
        for i in 0..self.rows {
            for (j, v) in self.row_mut(i).iter_mut().enumerate() {
                *v = src.at(j, i);
            }
        }
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f64) {
        for i in 0..self.rows {
            self.row_mut(i).fill(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_index() {
        let m = Matrix::from_fn(3, 4, |i, j| (i * 10 + j) as f64);
        assert_eq!(m.rows(), 3);
        assert_eq!(m.cols(), 4);
        assert_eq!(m.get(2, 3), 23.0);
        assert_eq!(m.as_ref().at(1, 2), 12.0);
    }

    #[test]
    fn identity_is_identity() {
        let id = Matrix::identity(4);
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(id.get(i, j), if i == j { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn views_are_strided() {
        let m = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let v = m.view(1, 1, 2, 2);
        assert_eq!(v.at(0, 0), 5.0);
        assert_eq!(v.at(1, 1), 10.0);
        assert_eq!(v.row(1), &[9.0, 10.0]);
    }

    #[test]
    fn step_rows_views_a_residue_class_in_place() {
        let m = Matrix::from_fn(7, 3, |i, j| (i * 3 + j) as f64);
        for step in 1..=4 {
            let mut seen = 0;
            for first in 0..step {
                let v = m.as_ref().step_rows(first, step);
                assert_eq!(v.cols(), 3);
                for i in 0..v.rows() {
                    assert_eq!(v.row(i), m.as_ref().row(first + i * step));
                }
                seen += v.rows();
            }
            assert_eq!(seen, 7, "the residue classes partition the rows");
        }
        assert_eq!(m.as_ref().step_rows(9, 2).rows(), 0, "a start past the end is empty");
    }

    #[test]
    fn split_quad_disjoint_writes() {
        let mut m = Matrix::zeros(4, 4);
        let (mut a11, mut a12, mut a21, mut a22) = m.as_mut().split_quad(2, 2);
        a11.fill(1.0);
        a12.fill(2.0);
        a21.fill(3.0);
        a22.fill(4.0);
        assert_eq!(m.get(0, 0), 1.0);
        assert_eq!(m.get(0, 3), 2.0);
        assert_eq!(m.get(3, 0), 3.0);
        assert_eq!(m.get(3, 3), 4.0);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(3, 5, |i, j| (i * 7 + j * 3) as f64);
        assert_eq!(m.transposed().transposed(), m);
        assert_eq!(m.as_ref().to_owned_transposed(), m.transposed());
    }

    #[test]
    fn copy_from_view() {
        let src = Matrix::from_fn(2, 2, |i, j| (i + j) as f64 + 0.5);
        let mut dst = Matrix::zeros(4, 4);
        dst.view_mut(1, 1, 2, 2).copy_from(src.as_ref());
        assert_eq!(dst.get(1, 1), 0.5);
        assert_eq!(dst.get(2, 2), 2.5);
        assert_eq!(dst.get(0, 0), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn sub_view_bounds_checked() {
        let m = Matrix::zeros(3, 3);
        let _ = m.view(1, 1, 3, 3);
    }
}
