//! The four shorter spellings the benchmark package pins: each is the kernel
//! of the same name on the default backend, with fresh outputs and a
//! throwaway arena where the spelling has no argument for them (not the
//! thread-local arena, which the blocked gemm borrows for its pack buffers).
//! For the benchmark package and doc examples; library code calls the kernel.

use crate::backend::BackendKind;
use crate::cholesky::{self, CholeskyError};
use crate::matrix::{MatMut, MatRef, Matrix};
use crate::update::{self, UpdateError};
use crate::workspace::Workspace;

/// [`cholesky::potrf`]: factors `A = LLᵀ` in place.
pub fn potrf(a: MatMut<'_>) -> Result<(), CholeskyError> {
    cholesky::potrf(a, BackendKind::default_kind().get())
}

/// [`cholesky::trtri_lower`]: returns `Y = L⁻¹`.
pub fn trtri_lower(l: MatRef<'_>) -> Matrix {
    let mut y = Matrix::zeros(l.rows(), l.cols());
    cholesky::trtri_lower(l, y.as_mut(), BackendKind::default_kind().get(), &mut Workspace::new());
    y
}

/// [`cholesky::cholinv`]: returns `(L, Y)` with `A = LLᵀ`, `Y = L⁻¹`.
pub fn cholinv(a: MatRef<'_>) -> Result<(Matrix, Matrix), CholeskyError> {
    let (mut l, mut y) = (Matrix::zeros(a.rows(), a.cols()), Matrix::zeros(a.rows(), a.cols()));
    let backend = BackendKind::default_kind().get();
    cholesky::cholinv(a, l.as_mut(), y.as_mut(), backend, &mut Workspace::new()).map(|()| (l, y))
}

/// [`update::rank_k_downdate`]: removes the rows of `b` from the factor `r`.
pub fn rank_k_downdate(r: MatMut<'_>, b: MatRef<'_>, ws: &mut Workspace) -> Result<f64, UpdateError> {
    update::rank_k_downdate(r, b, BackendKind::default_kind().get(), ws)
}
