//! Write handles on the residue classes of one preallocated output matrix.
//!
//! A global driver allocates the `m × n` result once and every owning rank
//! writes its cyclic piece straight into it, inside the SPMD region:
//! [`CyclicWindows::split`] partitions the buffer into one
//! [`CyclicWindow`] per `(r, c)` of an `rp × cp` cyclic layout — rows
//! `≡ r (mod rp)`, columns `≡ c (mod cp)` — and each rank
//! [`take`](CyclicWindows::take)s its own. Distinct `(r, c)` are distinct
//! residue classes, so no element belongs to two windows: the same
//! disjoint-by-construction discipline as [`MatMut::split_rows`], for a
//! partition `split_*` cannot express. The rank writes its packed local
//! piece through the window with [`CyclicWindow::deposit`].

use crate::dist::local_count;
use dense::{MatMut, MatRef};
use std::sync::Mutex;

/// The write handle on one residue class `(r, c)` of a cyclic layout. See
/// the [module docs](self).
pub struct CyclicWindow<'a> {
    /// Rows `≡ r` of the output, from the first owned column to the last
    /// (`(local_cols − 1)·col_step + 1` wide). Private: for `col_step > 1`
    /// the views of one row class overlap in the columns *between* their
    /// owned ones, so this type never hands the view out or forms a row
    /// slice of it — it only writes elements at multiples of `col_step`.
    view: MatMut<'a>,
    col_step: usize,
    local_cols: usize,
}

impl<'a> CyclicWindow<'a> {
    /// Local piece shape `(rows, cols)` this window holds.
    pub fn local_dims(&self) -> (usize, usize) {
        (self.view.rows(), self.local_cols)
    }

    /// Writes the packed local piece `src` (local entry `(li, lj)` is global
    /// `(li·rp + r, lj·cp + c)`) through the window.
    pub fn deposit(&mut self, src: MatRef<'_>) {
        assert_eq!(
            (src.rows(), src.cols()),
            self.local_dims(),
            "piece shape must match the window"
        );
        if self.col_step == 1 {
            self.view.copy_from(src);
            return;
        }
        for li in 0..src.rows() {
            for (lj, &v) in src.row(li).iter().enumerate() {
                self.view.set(li, lj * self.col_step, v);
            }
        }
    }
}

/// Every window of one output buffer, each takeable once. Shared by
/// reference with the rank threads of an SPMD region.
pub struct CyclicWindows<'a> {
    cp: usize,
    slots: Vec<Mutex<Option<CyclicWindow<'a>>>>,
}

impl<'a> CyclicWindows<'a> {
    /// Partitions the row-major `rows × cols` buffer `out` over an
    /// `rp × cp` cyclic layout (uneven sizes allowed).
    pub fn split(out: &'a mut [f64], rows: usize, cols: usize, rp: usize, cp: usize) -> CyclicWindows<'a> {
        assert_eq!(out.len(), rows * cols, "buffer size mismatch");
        assert!(rp > 0 && cp > 0, "a layout needs at least one owner per dimension");
        let base = out.as_mut_ptr();
        let mut slots = Vec::with_capacity(rp * cp);
        for r in 0..rp {
            for c in 0..cp {
                let (lr, lc) = (local_count(rows, r, rp), local_count(cols, c, cp));
                // From the first owned column to the last; an empty class gets
                // a window of no rows or no columns at offset 0.
                let span = if lc == 0 { 0 } else { (lc - 1) * cp + 1 };
                let offset = if lr == 0 || lc == 0 { 0 } else { r * cols + c };
                // SAFETY: `out` is exclusively borrowed for `'a`, and every
                // address the view spans lies inside it: its last element is
                // row `r + (lr−1)·rp < rows`, column `c + (lc−1)·cp < cols`.
                // The elements a `CyclicWindow` can *write* are rows ≡ r
                // (mod rp) at columns ≡ c (mod cp) — `deposit` steps by
                // `col_step`, and copies over the whole view only when
                // `cp = 1`, where the span is exactly those elements — so
                // windows of distinct `(r, c)` write disjoint elements. For
                // `cp > 1` the spans of one row class do overlap between
                // owned columns; no reference is ever formed over a span
                // (`MatMut::set` writes one element through the raw
                // pointer), so no two live references alias.
                let view = unsafe { MatMut::from_raw_parts(base.add(offset), lr, span, rp * cols) };
                slots.push(Mutex::new(Some(CyclicWindow {
                    view,
                    col_step: cp,
                    local_cols: lc,
                })));
            }
        }
        CyclicWindows { cp, slots }
    }

    /// Takes the window of residue class `(r, c)`. Panics if it was taken
    /// before: a class has one writer.
    pub fn take(&self, r: usize, c: usize) -> CyclicWindow<'a> {
        assert!(c < self.cp, "column coordinate out of range");
        self.slots[r * self.cp + c]
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take()
            .unwrap_or_else(|| panic!("window ({r}, {c}) was already taken"))
    }
}
