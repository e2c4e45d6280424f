//! Streaming QR: an incremental row-append/downdate engine on top of the
//! [`QrPlan`] facade.
//!
//! [`StreamingQr`] keeps a *live* upper-triangular factor `R` for a row set
//! that changes over time. Where [`QrPlan::factor`] re-derives everything
//! from scratch, a stream folds each arriving block of rows into the
//! existing factor with the dense rank-k kernels
//! ([`dense::update::rank_k_append`] /
//! [`dense::update::rank_k_downdate`]) at `O(kn² + n³)` cost — independent
//! of how many rows are already inside — drawing every temporary from the
//! owning plan's pooled [`Workspace`](dense::Workspace) arenas, so warm
//! updates perform **zero heap allocations**.
//!
//! # Drift and the refresh contract
//!
//! Gram-based updates inherit CholeskyQR's conditioning sensitivity: each
//! update can lose up to `ε·κ(R)²` of factor accuracy (downdates amplify by
//! a further `1/α²`, the downdate pivot). The stream integrates exactly
//! that bound into a running [`drift`](StreamingQr::drift) score and, when
//! it exceeds the configurable [`drift_threshold`](StreamingQr::drift), a
//! **refresh** fires automatically: a re-factorization of the retained
//! rows by the owning plan's own algorithm and escalation ladder — across
//! the plan's ranks when the row count matches its shape, on one rank
//! otherwise (see [`refresh`](StreamingQr::refresh)) — which resets drift
//! to zero. Drift is the only automatic trigger: every append and downdate
//! folds through the rank-k kernels whatever its width, and the caller asks
//! for any other refresh ([`refresh`](StreamingQr::refresh),
//! [`snapshot`](StreamingQr::snapshot)). [`StreamStatus::refreshed`]
//! reports when one fired.
//!
//! # Snapshots
//!
//! [`snapshot`](StreamingQr::snapshot) is a refresh that keeps `Q`: the
//! same run of the plan over the live rows, with the report diagnostics a
//! [`QrPlan::factor`] adds, and the same commit (a snapshot counts as a
//! refresh, and fails or escalates exactly where a refresh of the same rows
//! does). At the plan's row count it runs on the plan's ranks, and a 1D
//! plan adds the diagnostics inside that region. Every stream keeps a copy
//! of its live rows for this, for refreshes, and for the bitwise audit of
//! downdates.
//!
//! # Streaming least squares
//!
//! Every stream carries a **right-hand-side track** of `nrhs ≥ 0` columns,
//! fixed by the right-hand side it is opened with
//! ([`QrPlan::stream_with_rhs`]): the projection `dᵀ = (Aᵀb)ᵀ`, one row per
//! right-hand side, updated with the same rank-k deltas as the factor
//! ([`append_rows_with`](StreamingQr::append_rows_with) /
//! [`downdate_rows_with`](StreamingQr::downdate_rows_with)) and recomputed
//! exactly from the retained `(A, b)` history whenever a refresh fires. A
//! zero-width track keeps only `R`.
//! [`solve`](StreamingQr::solve) then answers `min ‖Ax − b‖` at any moment
//! by the *corrected semi-normal equations* (Björck): solve `RᵀR·x = d` by
//! an `Rᵀ`-forward and `R`-backward substitution, then apply one refinement
//! step `RᵀR·δ = Aᵀ(b − Ax)` from the history, which restores the accuracy
//! a Gram-based `R` alone would lose for moderately conditioned problems.
//! The substitutions are the backend's `trsm_right_upper` on the row form
//! `dᵀ` (its few-rows path) and `trsm_left_upper`, one right-hand side at a
//! time, so a `k`-column stream solves bitwise like `k` one-column streams.
//! Warm solves allocate nothing, same as appends.

use crate::driver::{PlanError, QrPlan, QrReport};
use dense::matrix::{MatMut, MatRef};
use dense::update::{rank_k_append, rank_k_downdate, UpdateError};
use dense::{blas1, BackendKind, Matrix};

/// Default drift threshold: refresh once the estimated orthogonality loss
/// of the implicit `Q = A·R⁻¹` reaches `1e-8` — roughly the square root of
/// the well-conditioned batch diagnostic bound.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 1e-8;

/// A live, incrementally maintained QR factorization (see the module docs).
///
/// Built by [`QrPlan::stream_with_rhs`]; the stream clones the plan
/// (sharing its workspace pool, so service-cached plans warm their streams
/// and vice versa) and seeds `R` from the plan's run over the initial
/// matrix, bitwise the `R` a [`QrPlan::factor`] of it reports.
#[derive(Clone, Debug)]
pub struct StreamingQr {
    plan: QrPlan,
    n: usize,
    r: Matrix,
    /// Retained row history, row-major; rows `[start, start + live)` are
    /// logically present (`start` grows as downdates consume the front).
    history: Vec<f64>,
    start: usize,
    live: usize,
    drift: f64,
    drift_threshold: f64,
    appends: usize,
    downdates: usize,
    refreshes: usize,
    updates_since_refresh: usize,
    /// The least-squares track (see the module docs), `nrhs ≥ 0` wide.
    rhs: RhsTrack,
    /// The most recent refresh failure, kept for diagnosis when a
    /// drift-triggered refresh fails *after* the update itself committed
    /// (see [`StreamStatus::refresh_failed`]); cleared by the next
    /// successful refresh.
    last_refresh_error: Option<PlanError>,
}

/// The right-hand-side state of a stream: the projection `dᵀ = (Aᵀb)ᵀ`
/// (`nrhs × n`, one row per right-hand side) and the raw right-hand-side
/// rows, indexed like the row history.
#[derive(Clone, Debug)]
struct RhsTrack {
    nrhs: usize,
    dt: Matrix,
    bhist: Vec<f64>,
}

impl RhsTrack {
    /// `dᵀ ← dᵀ + sign·CᵀB` for a `k × n` row block `b` against its
    /// `k × nrhs` right-hand sides `c` — the projection's rank-k delta,
    /// streamed row by row so it is allocation-free and deterministic: one
    /// axpy per row and right-hand side, `(sign·c)·a = ±(a·c)` exactly. From
    /// a zeroed `dᵀ` with `sign = 1` it is `(Aᵀb)ᵀ` of the rows itself
    /// (`1·x = x`), so a refresh recomputes `dᵀ` by this same fold.
    fn fold_delta(dt: &mut Matrix, sign: f64, b: MatRef<'_>, c: MatRef<'_>) {
        let n = b.cols();
        for i in 0..b.rows() {
            for (&cv, d) in c.row(i).iter().zip(dt.data_mut().chunks_exact_mut(n)) {
                blas1::axpy(sign * cv, b.row(i), d);
            }
        }
    }
}

/// What a single append/downdate did to the stream.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StreamStatus {
    /// Rows currently folded into the factor.
    pub rows: usize,
    /// Accumulated drift bound after the operation (zero right after a
    /// refresh).
    pub drift: f64,
    /// Whether this operation's drift crossed the threshold and refreshed.
    pub refreshed: bool,
    /// The update itself committed, but the drift-triggered refresh that
    /// followed it failed. The stream stays consistent — `live`, the
    /// history, and `R` all include the rows — with drift left above the
    /// threshold so the next update retries;
    /// [`StreamingQr::last_refresh_error`] carries the typed cause.
    pub refresh_failed: bool,
    /// Updates applied since the last refresh.
    pub updates_since_refresh: usize,
    /// Diagonal-ratio estimate of `κ(R)` (cheap, no extra factorization).
    pub condition_estimate: f64,
}

/// An explicit factorization extracted from a live stream.
#[derive(Clone, Debug)]
pub struct StreamSnapshot {
    /// The orthonormal factor for the current row set; always `Some`.
    pub q: Option<Matrix>,
    /// The refreshed upper-triangular factor, which the stream keeps as its
    /// `R` from then on.
    pub r: Matrix,
    /// Rows folded into the factor.
    pub rows: usize,
    /// `‖QᵀQ − I‖` of the returned `Q`; always `Some`.
    pub orthogonality_error: Option<f64>,
    /// `‖A − QR‖/‖A‖` over the retained rows; always `Some`.
    pub residual_error: Option<f64>,
    /// Appends applied over the stream's lifetime.
    pub appends: usize,
    /// Downdates applied over the stream's lifetime.
    pub downdates: usize,
    /// Refreshes performed over the stream's lifetime (snapshots included).
    pub refreshes: usize,
}

impl StreamingQr {
    /// Opens a stream; called through [`QrPlan::stream_with_rhs`]. `rhs`
    /// rows pair one-to-one with `initial`'s; its width, zero included,
    /// fixes the track's `nrhs` for the stream's life.
    pub(crate) fn open(plan: QrPlan, initial: &Matrix, rhs: &Matrix) -> Result<StreamingQr, PlanError> {
        if rhs.rows() != initial.rows() {
            return Err(PlanError::RhsShapeMismatch {
                expected: (initial.rows(), rhs.cols()),
                got: (rhs.rows(), rhs.cols()),
            });
        }
        plan.check_shape(initial.as_ref())?;
        let r = plan.run_rows(initial.as_ref(), plan.retry_policy(), false)?.run.r;
        let n = plan.n();
        let mut s = StreamingQr {
            n,
            r,
            history: initial.data().to_vec(),
            start: 0,
            live: initial.rows(),
            drift: 0.0,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            appends: 0,
            downdates: 0,
            refreshes: 0,
            updates_since_refresh: 0,
            rhs: RhsTrack {
                nrhs: rhs.cols(),
                dt: Matrix::zeros(rhs.cols(), n),
                bhist: rhs.data().to_vec(),
            },
            last_refresh_error: None,
            plan,
        };
        s.recompute_d();
        Ok(s)
    }

    /// Sets the drift bound above which an update auto-triggers a full
    /// refresh (default [`DEFAULT_DRIFT_THRESHOLD`]). `f64::INFINITY`
    /// disables auto-refresh entirely — useful for latency measurements;
    /// the drift score stays observable either way.
    pub fn with_drift_threshold(mut self, threshold: f64) -> StreamingQr {
        self.drift_threshold = threshold;
        self
    }

    /// Pre-allocates history capacity for `additional` future appended
    /// rows, so the appends themselves stay allocation-free.
    pub fn reserve_rows(&mut self, additional: usize) {
        self.history.reserve(additional * self.n);
        self.rhs.bhist.reserve(additional * self.rhs.nrhs);
    }

    /// The plan this stream refreshes through.
    pub fn plan(&self) -> &QrPlan {
        &self.plan
    }

    /// Column count (the factor's order).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Rows currently folded into the factor.
    pub fn rows(&self) -> usize {
        self.live
    }

    /// The live upper-triangular factor.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Accumulated drift bound (see the module docs).
    pub fn drift(&self) -> f64 {
        self.drift
    }

    /// The configured auto-refresh threshold.
    pub fn drift_threshold(&self) -> f64 {
        self.drift_threshold
    }

    /// Lifetime refresh count.
    pub fn refreshes(&self) -> usize {
        self.refreshes
    }

    /// Width of the right-hand-side track (zero for a stream that keeps
    /// only `R`).
    pub fn nrhs(&self) -> usize {
        self.rhs.nrhs
    }

    /// The typed cause of the most recent refresh failure, `None` once a
    /// refresh succeeds again. Populated when a drift-triggered refresh
    /// fails after its update committed (the status-level signal is
    /// [`StreamStatus::refresh_failed`]), and by failed explicit
    /// [`refresh`](StreamingQr::refresh) calls.
    pub fn last_refresh_error(&self) -> Option<&PlanError> {
        self.last_refresh_error.as_ref()
    }

    /// Diagonal-ratio estimate of `κ(R)`: `max|rᵢᵢ| / min|rᵢᵢ|`. Cheap and
    /// rough (it lower-bounds the true condition number), but exactly the
    /// quantity that scales the per-update accuracy loss.
    pub fn condition_estimate(&self) -> f64 {
        let mut hi = 0.0_f64;
        let mut lo = f64::INFINITY;
        for i in 0..self.n {
            let d = self.r.get(i, i).abs();
            hi = hi.max(d);
            lo = lo.min(d);
        }
        if lo == 0.0 {
            f64::INFINITY
        } else {
            hi / lo
        }
    }

    fn status(&self, refreshed: bool) -> StreamStatus {
        StreamStatus {
            rows: self.live,
            drift: self.drift,
            refreshed,
            refresh_failed: false,
            updates_since_refresh: self.updates_since_refresh,
            condition_estimate: self.condition_estimate(),
        }
    }

    /// An update's row block must be `n` wide, and its right-hand-side block
    /// must pair one-to-one with the rows at the track's width.
    fn check_block(&self, b: MatRef<'_>, c: MatRef<'_>) -> Result<(), PlanError> {
        if b.cols() != self.n {
            return Err(PlanError::Update(UpdateError::ShapeMismatch {
                order: self.n,
                rows: b.rows(),
                cols: b.cols(),
            }));
        }
        if (c.rows(), c.cols()) != (b.rows(), self.rhs.nrhs) {
            return Err(PlanError::RhsShapeMismatch {
                expected: (b.rows(), self.rhs.nrhs),
                got: (c.rows(), c.cols()),
            });
        }
        Ok(())
    }

    fn bump_drift(&mut self, amplification: f64) {
        let cond = self.condition_estimate();
        self.drift += f64::EPSILON * cond * cond * amplification;
        self.updates_since_refresh += 1;
    }

    /// Shared tail of every committed in-place update: the drift-triggered
    /// auto-refresh. A refresh failure here must **not** surface as `Err` —
    /// the rows are already folded into `R`, the history, and `d`, and an
    /// error would claim otherwise — so the stream stays as the successful
    /// update left it and the failure is reported through
    /// [`StreamStatus::refresh_failed`] /
    /// [`last_refresh_error`](StreamingQr::last_refresh_error), with drift
    /// left above the threshold so the next update retries.
    fn finish_update(&mut self) -> StreamStatus {
        if self.drift > self.drift_threshold {
            match self.refresh() {
                Ok(()) => return self.status(true),
                Err(_) => {
                    let mut st = self.status(false);
                    st.refresh_failed = true;
                    return st;
                }
            }
        }
        self.status(false)
    }

    /// Folds `k = b.rows()` new rows into the factor, at any `k`, by one
    /// rank-k Gram update from pooled arena scratch, **and** their
    /// right-hand sides `c` (one row each, `nrhs` wide) into the projection
    /// `dᵀ`. `dᵀ`, the histories and the counters are only touched once the
    /// factor update has committed, so the two move transactionally in
    /// step; warm appends perform zero heap allocations when the history
    /// capacity was [reserved](StreamingQr::reserve_rows). When the update
    /// pushes [`drift`](StreamingQr::drift) past the threshold a full
    /// refresh runs afterwards and the returned status says so. A delta
    /// whose appended Gram matrix is not positive definite (a NaN row
    /// included) fails inside the kernel ([`PlanError::Update`] of
    /// [`UpdateError::NotPositiveDefinite`]) and leaves the stream
    /// untouched.
    pub fn append_rows_with(&mut self, b: MatRef<'_>, c: MatRef<'_>) -> Result<StreamStatus, PlanError> {
        self.check_block(b, c)?;
        let k = b.rows();
        if k == 0 {
            return Ok(self.status(false));
        }
        {
            let mut ws = self.plan.workspace().checkout();
            rank_k_append(self.r.as_mut(), b, BackendKind::default_kind().get(), &mut ws)?;
        }
        // The factor update committed; everything below is infallible, so
        // `R`, `dᵀ`, and the histories move together or not at all.
        RhsTrack::fold_delta(&mut self.rhs.dt, 1.0, b, c);
        for i in 0..k {
            self.history.extend_from_slice(b.row(i));
            self.rhs.bhist.extend_from_slice(c.row(i));
        }
        self.live += k;
        self.appends += 1;
        self.bump_drift(1.0);
        Ok(self.finish_update())
    }

    /// Removes the `k = b.rows()` **oldest** rows from the factor (sliding
    /// window) **and** subtracts their right-hand sides' contribution from
    /// `dᵀ`. `b` and `c` must be bitwise the oldest rows and the right-hand
    /// sides that arrived with them (enforced;
    /// [`PlanError::StreamHistoryMismatch`] otherwise). Downdating below `n`
    /// remaining rows is rejected as [`PlanError::NotTall`].
    pub fn downdate_rows_with(&mut self, b: MatRef<'_>, c: MatRef<'_>) -> Result<StreamStatus, PlanError> {
        self.check_block(b, c)?;
        let k = b.rows();
        if k == 0 {
            return Ok(self.status(false));
        }
        if self.live < self.n + k {
            return Err(PlanError::NotTall {
                m: self.live.saturating_sub(k),
                n: self.n,
            });
        }
        let (oldest, nrhs) = (self.history_view(), self.rhs.nrhs);
        let oldest_rhs = MatRef::from_slice(&self.rhs.bhist[self.start * nrhs..], self.live, nrhs);
        if let Some(row) = (0..k).find(|&i| oldest.row(i) != b.row(i) || oldest_rhs.row(i) != c.row(i)) {
            return Err(PlanError::StreamHistoryMismatch { row });
        }
        let min_alpha_sq = {
            let mut ws = self.plan.workspace().checkout();
            rank_k_downdate(self.r.as_mut(), b, BackendKind::default_kind().get(), &mut ws)?
        };
        // Committed; keep `dᵀ` and the history cursors in step with `R`.
        RhsTrack::fold_delta(&mut self.rhs.dt, -1.0, b, c);
        self.start += k;
        self.live -= k;
        self.compact();
        self.downdates += 1;
        // A downdate's accuracy loss is amplified by 1/α² (the Cholesky of
        // I − WᵀW it rests on is conditioned by its smallest pivot).
        self.bump_drift(1.0 / min_alpha_sq);
        Ok(self.finish_update())
    }

    /// Reclaims the consumed front of the history buffers once it dominates
    /// the live rows (amortized O(1) per downdated row, no allocation).
    fn compact(&mut self) {
        if self.start >= self.live && self.start > 0 {
            self.history.copy_within(self.start * self.n.., 0);
            self.history.truncate(self.live * self.n);
            let nrhs = self.rhs.nrhs;
            self.rhs.bhist.copy_within(self.start * nrhs.., 0);
            self.rhs.bhist.truncate(self.live * nrhs);
            self.start = 0;
        }
    }

    /// The retained rows, viewed in place.
    fn history_view(&self) -> MatRef<'_> {
        MatRef::from_slice(&self.history[self.start * self.n..], self.live, self.n)
    }

    /// Re-derives `R` from the retained rows, resetting drift to zero, by
    /// the owning plan's own escalation ladder at the live row count: the
    /// plan's distributed factorization when the rows match its shape, the
    /// same algorithms on one rank otherwise. Either way the second CQR2
    /// pass re-reads the rows, so the `R` is a `factor`'s — not a
    /// re-factored Gram matrix's — and the cost is a batch factorization's,
    /// `Q` included. The projection `dᵀ` is recomputed exactly from the
    /// retained `(A, b)` history at the same time, discarding the rounding
    /// the incremental deltas accumulate. `R` and `dᵀ` are untouched on
    /// error. Besides these explicit calls and
    /// [`snapshot`](StreamingQr::snapshot)s, a refresh runs only when an
    /// update's drift crosses the threshold.
    ///
    /// When the owning plan carries an enabled
    /// [`RetryPolicy`](crate::driver::RetryPolicy), a failed or
    /// condition-rejected attempt walks the plan's ladder, rung limits
    /// included, instead of parking the stream in `refresh_failed`.
    pub fn refresh(&mut self) -> Result<(), PlanError> {
        let run = self.plan.run_rows(self.history_view(), self.plan.retry_policy(), false);
        self.commit(run, |accepted| &accepted.run.r).map(drop)
    }

    /// The one commit of a refresh or snapshot run: adopt its `R` (`r` of the
    /// outcome), rebuild `dᵀ`, reset drift, count the refresh, clear the last
    /// refresh error — or, on failure, record the error and touch nothing else.
    fn commit<T>(&mut self, outcome: Result<T, PlanError>, r: fn(&T) -> &Matrix) -> Result<T, PlanError> {
        match &outcome {
            Ok(run) => {
                self.r.data_mut().copy_from_slice(r(run).data());
                self.recompute_d();
                self.drift = 0.0;
                self.updates_since_refresh = 0;
                self.refreshes += 1;
                self.last_refresh_error = None;
            }
            Err(e) => self.last_refresh_error = Some(e.clone()),
        }
        outcome
    }

    /// Recomputes `dᵀ = (Aᵀb)ᵀ` from the retained histories: zero it, then
    /// fold the live rows in as one append (no `m`-sized temporary, no
    /// allocation).
    fn recompute_d(&mut self) {
        let (start, live, nrhs) = (self.start, self.live, self.rhs.nrhs);
        let rows = MatRef::from_slice(&self.history[start * self.n..], live, self.n);
        let rhs = MatRef::from_slice(&self.rhs.bhist[start * nrhs..], live, nrhs);
        self.rhs.dt.data_mut().fill(0.0);
        RhsTrack::fold_delta(&mut self.rhs.dt, 1.0, rows, rhs);
    }

    /// Solves the live least-squares problem `min ‖Ax − b‖` over the rows
    /// currently folded in, returning the `n × nrhs` solution (`n × 0` for
    /// a stream that keeps only `R`). Allocates the output; use
    /// [`solve_into`](StreamingQr::solve_into) on hot paths.
    pub fn solve(&self) -> Result<Matrix, PlanError> {
        let mut x = Matrix::zeros(self.n, self.rhs.nrhs);
        self.solve_into(&mut x)?;
        Ok(x)
    }

    /// [`solve`](StreamingQr::solve) into a caller-owned `n × nrhs` output,
    /// drawing every temporary from the plan's pooled arenas — warm solves
    /// perform **zero heap allocations**.
    ///
    /// The method is the *corrected semi-normal equations* (Björck): solve
    /// `RᵀR·x = d` by an `Rᵀ`-forward then `R`-backward substitution
    /// (`O(n²·nrhs)`, independent of the row count), then one refinement
    /// step `RᵀR·δ = Aᵀ(b − Ax)`, `x ← x + δ`, streamed over the retained
    /// rows. The refinement is what lifts the Gram-mediated solve back to
    /// QR-level accuracy for moderately conditioned problems. Per column,
    /// the substitutions are the backend's `trsm_right_upper` (`yᵀ·R = dᵀ`,
    /// at vector speed) and `trsm_left_upper`, and the refinement runs one
    /// lane-split dot and one axpy per retained row, so each column of `x`
    /// is bitwise a one-column stream's.
    pub fn solve_into(&self, x: &mut Matrix) -> Result<(), PlanError> {
        let (n, track) = (self.n, &self.rhs);
        if x.rows() != n || x.cols() != track.nrhs {
            return Err(PlanError::RhsShapeMismatch {
                expected: (n, track.nrhs),
                got: (x.rows(), x.cols()),
            });
        }
        // Semi-normal equations: RᵀR·x = d = Aᵀb.
        let mut ws = self.plan.workspace().checkout();
        let mut xt = ws.take_copy(track.dt.as_ref());
        self.seminormal(xt.as_mut(), x.as_mut());
        // One corrected-seminormal refinement step from the history:
        // wᵀ = (Aᵀ(b − A·x))ᵀ streamed row by row against xᵀ, one row per
        // right-hand side, then RᵀR·δ = w, x += δ.
        xt.as_mut().copy_transposed_from(x.as_ref());
        let mut wt = ws.take_matrix(track.nrhs, n);
        for i in self.start..self.start + self.live {
            let arow = &self.history[i * n..(i + 1) * n];
            let brow = &track.bhist[i * track.nrhs..(i + 1) * track.nrhs];
            let lanes = xt.data().chunks_exact(n).zip(wt.data_mut().chunks_exact_mut(n));
            for ((xl, wl), &bil) in lanes.zip(brow) {
                blas1::axpy(bil - blas1::dot_lanes(arow, xl), arow, wl);
            }
        }
        let mut w = ws.take_matrix_stale(n, track.nrhs);
        self.seminormal(wt.as_mut(), w.as_mut());
        for (xv, &dv) in x.data_mut().iter_mut().zip(w.data()) {
            *xv += dv;
        }
        for m in [xt, wt, w] {
            ws.recycle(m);
        }
        Ok(())
    }

    /// `RᵀR·y = g` for the `nrhs × n` row form `gᵀ` (overwritten) into the
    /// `n × nrhs` `y`, one right-hand side at a time: `zᵀ·R = gᵀ` by the row
    /// solve, then `R·y = z`.
    fn seminormal(&self, mut gt: MatMut<'_>, mut y: MatMut<'_>) {
        let (backend, r, n) = (BackendKind::default_kind().get(), self.r.as_ref(), self.n);
        for l in 0..gt.rows() {
            backend.trsm_right_upper(r, gt.rb_mut().sub(l, 0, 1, n));
        }
        y.copy_transposed_from(gt.rb());
        for l in 0..y.cols() {
            backend.trsm_left_upper(r, y.rb_mut().sub(0, l, n, 1));
        }
    }

    /// Materializes the factorization for the current row set: a
    /// [`refresh`](StreamingQr::refresh) that keeps the run's `Q` and adds
    /// the report diagnostics, exactly as [`QrPlan::factor`] of the live
    /// rows would (bitwise, at the plan's row count). It fails, escalates
    /// and commits exactly where a refresh of the same rows does, and also
    /// fails, as `factor` does, when its diagnostics are not finite
    /// ([`PlanError::NonFiniteDiagnostics`]). On success the stream adopts
    /// the returned `R`, drift resets, and the snapshot counts as a refresh;
    /// on failure only
    /// [`last_refresh_error`](StreamingQr::last_refresh_error) changes.
    pub fn snapshot(&mut self) -> Result<StreamSnapshot, PlanError> {
        let rows = self.history_view();
        let report = self
            .plan
            .run_rows(rows, self.plan.retry_policy(), true)
            .and_then(|accepted| QrReport::from_run(&self.plan, rows, accepted));
        let report = self.commit(report, |report| &report.r)?;
        Ok(StreamSnapshot {
            q: Some(report.q),
            r: report.r,
            rows: self.live,
            orthogonality_error: Some(report.orthogonality_error),
            residual_error: Some(report.residual_error),
            appends: self.appends,
            downdates: self.downdates,
            refreshes: self.refreshes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::Algorithm;
    use dense::random::{gaussian_matrix, matrix_with_condition, well_conditioned};
    use pargrid::GridShape;

    fn plan(m: usize, n: usize) -> QrPlan {
        QrPlan::new(m, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4).unwrap())
            .build()
            .unwrap()
    }

    /// A stream that keeps only `R`: a zero-width right-hand side.
    fn open(plan: &QrPlan, a0: &Matrix) -> Result<StreamingQr, PlanError> {
        plan.stream_with_rhs(a0, &Matrix::zeros(a0.rows(), 0))
    }

    fn append(s: &mut StreamingQr, b: MatRef<'_>) -> Result<StreamStatus, PlanError> {
        s.append_rows_with(b, Matrix::zeros(b.rows(), 0).as_ref())
    }

    fn downdate(s: &mut StreamingQr, b: MatRef<'_>) -> Result<StreamStatus, PlanError> {
        s.downdate_rows_with(b, Matrix::zeros(b.rows(), 0).as_ref())
    }

    #[test]
    fn stream_tracks_appends_and_snapshot_is_orthonormal() {
        let (m0, n) = (64usize, 12usize);
        let a0 = well_conditioned(m0, n, 7);
        let mut s = open(&plan(m0, n), &a0).unwrap();
        assert_eq!(s.rows(), m0);
        for round in 0..5 {
            let b = gaussian_matrix(3, n, 100 + round);
            let st = append(&mut s, b.as_ref()).unwrap();
            assert_eq!(st.rows, m0 + 3 * (round as usize + 1));
        }
        let snap = s.snapshot().unwrap();
        assert_eq!(snap.rows, m0 + 15);
        assert!(snap.orthogonality_error.unwrap() < 1e-13, "{snap:?}");
        assert!(snap.residual_error.unwrap() < 1e-13);
        let q = snap.q.as_ref().unwrap();
        assert_eq!((q.rows(), q.cols()), (m0 + 15, n));
    }

    /// Open and the plan-shape refresh skip the report diagnostics; the `R`
    /// they keep is still bit for bit the one `factor` reports, escalated
    /// or not.
    #[test]
    fn open_and_plan_shape_refresh_keep_the_r_factor_reports() {
        use crate::driver::RetryPolicy;
        let (m0, n) = (64usize, 8usize);
        let escalating = QrPlan::new(m0, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4).unwrap())
            .retry(RetryPolicy::escalate())
            .build()
            .unwrap();
        // κ = 1e9 is past CQR2's limit: every factorization of these rows
        // leaves the primary rung.
        let hard = matrix_with_condition(2 * m0, n, 1e9, 17);
        for (plan, rows) in [(plan(m0, n), well_conditioned(2 * m0, n, 17)), (escalating, hard)] {
            let escalates = plan.retry_policy().is_enabled();
            let a0 = Matrix::from_view(rows.view(0, 0, m0, n));
            let mut s = open(&plan, &a0).unwrap();
            let opened = plan.factor(&a0).unwrap();
            assert_eq!(opened.escalation.is_some_and(|e| e.escalated()), escalates);
            assert_eq!(s.r(), &opened.r);
            // Slide the well-conditioned window by `m0` rows — a delta as
            // wide as the window, folded like any other. A fold onto the
            // κ = 1e9 `R` breaks down numerically (its drift bound ε·κ² is
            // far above 1), so that stream re-derives R right after open.
            if !escalates {
                assert!(!append(&mut s, rows.view(m0, 0, m0, n)).unwrap().refreshed);
                downdate(&mut s, rows.view(0, 0, m0, n)).unwrap();
            }
            let window = s.history_view().to_owned();
            s.refresh().unwrap();
            let refactored = plan.factor(&window).unwrap();
            assert_eq!(refactored.escalation.is_some_and(|e| e.escalated()), escalates);
            assert_eq!(s.r(), &refactored.r);
        }
    }

    /// A refresh rebuilds `dᵀ = (Aᵀb)ᵀ` by folding the live rows in as one
    /// append: bitwise the plain row-order sum `Σᵢ aᵢ·bᵢ`.
    #[test]
    fn refreshed_projection_is_the_row_order_sum() {
        let (m0, n, k) = (64usize, 8usize, 4usize);
        for nrhs in [1usize, 3] {
            let a0 = well_conditioned(m0, n, 21);
            let b0 = gaussian_matrix(m0, nrhs, 22);
            let mut s = plan(m0, n).stream_with_rhs(&a0, &b0).unwrap();
            let (b, c) = (gaussian_matrix(k, n, 23), gaussian_matrix(k, nrhs, 24));
            s.append_rows_with(b.as_ref(), c.as_ref()).unwrap();
            s.downdate_rows_with(a0.view(0, 0, k, n), b0.view(0, 0, k, nrhs))
                .unwrap();
            s.refresh().unwrap();
            let (rows, rhs) = (s.history_view(), &s.rhs.bhist[s.start * nrhs..]);
            let mut want = vec![0.0; nrhs * n];
            for i in 0..s.live {
                for j in 0..n {
                    for l in 0..nrhs {
                        want[l * n + j] += rows.at(i, j) * rhs[i * nrhs + l];
                    }
                }
            }
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(s.rhs.dt.data()), bits(&want), "nrhs = {nrhs}");
        }
    }

    #[test]
    fn append_then_downdate_restores_the_factor() {
        let (m0, n) = (64usize, 8usize);
        let a0 = well_conditioned(m0, n, 3);
        let mut s = open(&plan(m0, n), &a0).unwrap();
        // Slide the window: append 4 new rows, drop the 4 oldest (which are
        // the first rows of a0).
        let b = gaussian_matrix(4, n, 9);
        append(&mut s, b.as_ref()).unwrap();
        let oldest = Matrix::from_view(a0.view(0, 0, 4, n));
        let st = downdate(&mut s, oldest.as_ref()).unwrap();
        assert_eq!(st.rows, m0);
        assert!(st.drift > 0.0);
        // Compare against a from-scratch factor of the slid window.
        let mut window = Matrix::zeros(m0, n);
        window.view_mut(0, 0, m0 - 4, n).copy_from(a0.view(4, 0, m0 - 4, n));
        window.view_mut(m0 - 4, 0, 4, n).copy_from(b.as_ref());
        let want = plan(m0, n).factor(&window).unwrap().r;
        for (u, v) in s.r().data().iter().zip(want.data()) {
            assert!((u - v).abs() < 1e-8 * (1.0 + v.abs()), "{u} vs {v}");
        }
    }

    /// Width never triggers a refresh: a delta three times the window, and
    /// a one-row append to a 512 × 256 stream, both fold through the rank-k
    /// kernel and leave refreshing to drift.
    #[test]
    fn wide_deltas_fold_and_leave_refresh_to_drift() {
        let one_rank = |m: usize, n: usize| {
            QrPlan::new(m, n)
                .algorithm(Algorithm::Cqr2_1d)
                .grid(GridShape::one_d(1).unwrap())
                .build()
                .unwrap()
        };
        for (stream_plan, m0, n, k) in [
            (plan(32, 8), 32usize, 8usize, 3 * 32usize),
            (one_rank(512, 256), 512, 256, 1),
        ] {
            let a0 = well_conditioned(m0, n, 5);
            let mut s = open(&stream_plan, &a0).unwrap();
            let b = gaussian_matrix(k, n, 6);
            let st = append(&mut s, b.as_ref()).unwrap();
            assert!(!st.refreshed, "{m0}x{n} + {k} rows must fold");
            assert_eq!(s.refreshes(), 0);
            assert!(st.drift > 0.0);
            let mut all = Matrix::zeros(m0 + k, n);
            all.view_mut(0, 0, m0, n).copy_from(a0.as_ref());
            all.view_mut(m0, 0, k, n).copy_from(b.as_ref());
            let want = one_rank(m0 + k, n).factor(&all).unwrap().r;
            let diff = dense::norms::rel_diff(s.r().as_ref(), want.as_ref());
            assert!(diff < 1e-10, "{m0}x{n} + {k} rows: rel diff {diff:e}");
        }
    }

    #[test]
    fn drift_threshold_triggers_refresh() {
        let (m0, n) = (64usize, 8usize);
        let a0 = well_conditioned(m0, n, 11);
        let mut s = open(&plan(m0, n), &a0).unwrap().with_drift_threshold(0.0);
        let b = gaussian_matrix(1, n, 12);
        let st = append(&mut s, b.as_ref()).unwrap();
        assert!(st.refreshed, "any positive drift exceeds a zero threshold");
        assert_eq!(s.drift(), 0.0);
    }

    #[test]
    fn sequential_refresh_matches_batch_r() {
        // After appends the live row count differs from the plan shape, so
        // refresh runs the plan's algorithm on one rank (1D-CQR2 with
        // p = 1); its R must agree with a batch factor of the same rows.
        let (m0, n) = (60usize, 16usize);
        let a0 = well_conditioned(m0, n, 17);
        let mut s = open(&plan(m0, n), &a0).unwrap();
        let b = gaussian_matrix(4, n, 18);
        append(&mut s, b.as_ref()).unwrap();
        s.refresh().unwrap();
        assert_eq!(s.drift(), 0.0);
        let mut full = Matrix::zeros(m0 + 4, n);
        full.view_mut(0, 0, m0, n).copy_from(a0.as_ref());
        full.view_mut(m0, 0, 4, n).copy_from(b.as_ref());
        let want = plan(m0 + 4, n).factor(&full).unwrap().r;
        for (u, v) in s.r().data().iter().zip(want.data()) {
            assert!((u - v).abs() < 1e-9 * (1.0 + v.abs()), "{u} vs {v}");
        }
    }

    /// A snapshot whose diagnostics are not finite is refused like a
    /// failing refresh: only the last refresh error changes. At 2^-900 the
    /// Gram rungs break down and the terminal Householder rung opens the
    /// stream, but `‖A‖²` underflows in the report's residual.
    #[test]
    fn a_snapshot_with_non_finite_diagnostics_is_refused() {
        use crate::driver::RetryPolicy;
        let (m0, n) = (64usize, 8usize);
        let well = well_conditioned(m0, n, 23);
        let tiny = Matrix::from_fn(m0, n, |i, j| 2f64.powi(-900) * well.get(i, j));
        let escalating = QrPlan::new(m0, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(4).unwrap())
            .retry(RetryPolicy::escalate())
            .build()
            .unwrap();
        let mut s = open(&escalating, &tiny).unwrap();
        let (r, refreshes) = (s.r().clone(), s.refreshes());
        let err = s.snapshot().unwrap_err();
        assert!(matches!(err, PlanError::NonFiniteDiagnostics { .. }), "{err:?}");
        assert_eq!((s.r(), s.refreshes()), (&r, refreshes));
        let recorded = s.last_refresh_error();
        assert!(
            matches!(recorded, Some(PlanError::NonFiniteDiagnostics { .. })),
            "{recorded:?}"
        );
    }

    #[test]
    fn downdating_below_n_rows_is_not_tall() {
        let n = 8usize;
        let a0 = well_conditioned(n + 4, n, 19);
        let p = QrPlan::new(n + 4, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(1).unwrap())
            .build()
            .unwrap();
        let mut s = open(&p, &a0).unwrap();
        let oldest = Matrix::from_view(a0.view(0, 0, 8, n));
        let err = downdate(&mut s, oldest.as_ref()).unwrap_err();
        assert!(matches!(err, PlanError::NotTall { m: 4, n: 8 }), "{err:?}");
    }
}
