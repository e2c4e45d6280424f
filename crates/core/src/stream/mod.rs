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
//! [`snapshot`](StreamingQr::snapshot) materializes an explicit `Q` for the
//! current row set by running the paper's *second CholeskyQR pass* on
//! `A·R⁻¹` — the same repair step that gives batch CQR2 its ε-level
//! orthogonality — and returns it with freshly computed
//! orthogonality/residual diagnostics, updating the internal `R` to the
//! repaired factor (a snapshot therefore counts as a refresh). Every stream
//! keeps a copy of its live rows for this, for refreshes, and for the
//! bitwise audit of downdates.
//!
//! # Streaming least squares
//!
//! Streams opened through [`QrPlan::stream_with_rhs`] additionally maintain
//! a **right-hand-side track**: the projected vector `d = Aᵀb`, updated
//! with the same rank-k deltas as the factor
//! ([`append_rows_with`](StreamingQr::append_rows_with) /
//! [`downdate_rows_with`](StreamingQr::downdate_rows_with)) and recomputed
//! exactly from the retained `(A, b)` history whenever a refresh fires.
//! [`solve`](StreamingQr::solve) then answers `min ‖Ax − b‖` at any moment
//! by the *corrected semi-normal equations* (Björck): solve `RᵀR·x = d` by
//! an `Rᵀ`-forward and `R`-backward substitution, then apply one refinement
//! step `RᵀR·δ = Aᵀ(b − Ax)` from the history, which restores the accuracy
//! a Gram-based `R` alone would lose for moderately conditioned problems.
//! Warm solves draw every temporary from the plan's pooled arenas — zero
//! process-wide heap allocations, same as appends.

use crate::driver::{PlanError, QrPlan};
use dense::cholesky::potrf;
use dense::matrix::MatRef;
use dense::trsm::trmm_upper_upper;
use dense::update::{rank_k_append, rank_k_downdate, UpdateError};
use dense::{blas1, trsm, Matrix};

/// Default drift threshold: refresh once the estimated orthogonality loss
/// of the implicit `Q = A·R⁻¹` reaches `1e-8` — far below where the CQR2
/// repair pass could start to struggle, and roughly the square root of the
/// well-conditioned batch diagnostic bound.
pub const DEFAULT_DRIFT_THRESHOLD: f64 = 1e-8;

/// A live, incrementally maintained QR factorization (see the module docs).
///
/// Built by [`QrPlan::stream`]; the stream clones the plan (sharing its
/// workspace pool, so service-cached plans warm their streams and vice
/// versa) and seeds `R` from a full [`QrPlan::factor`] of the initial
/// matrix.
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
    /// Optional least-squares track (see the module docs); `None` for
    /// factor-only streams.
    rhs: Option<RhsTrack>,
    /// The most recent refresh failure, kept for diagnosis when a
    /// drift-triggered refresh fails *after* the update itself committed
    /// (see [`StreamStatus::refresh_failed`]); cleared by the next
    /// successful refresh.
    last_refresh_error: Option<PlanError>,
}

/// The right-hand-side state of a least-squares stream: the projection
/// `d = Aᵀb` and the raw right-hand-side rows, indexed like the row history.
#[derive(Clone, Debug)]
struct RhsTrack {
    nrhs: usize,
    d: Matrix,
    bhist: Vec<f64>,
}

impl RhsTrack {
    /// `d ← d + sign·BᵀC` for a `k × n` row block `b` against its `k × nrhs`
    /// right-hand sides `c` — the projection's rank-k delta, streamed row by
    /// row so it is allocation-free and deterministic. A single right-hand
    /// side is one axpy per row: `(sign·c)·a = ±(a·c) = (sign·a)·c` exactly.
    fn fold_delta(&mut self, sign: f64, b: MatRef<'_>, c: MatRef<'_>) {
        let nrhs = self.nrhs;
        let d = self.d.data_mut();
        for i in 0..b.rows() {
            let crow = c.row(i);
            if nrhs == 1 {
                blas1::axpy(sign * crow[0], b.row(i), d);
                continue;
            }
            for (j, &aij) in b.row(i).iter().enumerate() {
                let dst = &mut d[j * nrhs..(j + 1) * nrhs];
                for (x, &cv) in dst.iter_mut().zip(crow) {
                    *x += sign * aij * cv;
                }
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
    /// The repaired upper-triangular factor.
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
    /// Opens a stream; called through [`QrPlan::stream`].
    pub(crate) fn open(plan: QrPlan, initial: &Matrix) -> Result<StreamingQr, PlanError> {
        let r = plan.run_accepted(initial.as_ref(), plan.retry_policy())?.run.r;
        let n = plan.n();
        let mut history = Vec::new();
        history.extend_from_slice(initial.data());
        Ok(StreamingQr {
            n,
            r,
            history,
            start: 0,
            live: initial.rows(),
            drift: 0.0,
            drift_threshold: DEFAULT_DRIFT_THRESHOLD,
            appends: 0,
            downdates: 0,
            refreshes: 0,
            updates_since_refresh: 0,
            rhs: None,
            last_refresh_error: None,
            plan,
        })
    }

    /// Opens a least-squares stream; called through
    /// [`QrPlan::stream_with_rhs`]. `rhs` rows pair one-to-one with
    /// `initial`'s; its width fixes the track's `nrhs` for the stream's
    /// life.
    pub(crate) fn open_with_rhs(plan: QrPlan, initial: &Matrix, rhs: &Matrix) -> Result<StreamingQr, PlanError> {
        if rhs.rows() != initial.rows() || rhs.cols() == 0 {
            return Err(PlanError::RhsShapeMismatch {
                expected: (initial.rows(), rhs.cols().max(1)),
                got: (rhs.rows(), rhs.cols()),
            });
        }
        let mut s = StreamingQr::open(plan, initial)?;
        s.rhs = Some(RhsTrack {
            nrhs: rhs.cols(),
            d: Matrix::zeros(s.n, rhs.cols()),
            bhist: rhs.data().to_vec(),
        });
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
        if let Some(track) = self.rhs.as_mut() {
            track.bhist.reserve(additional * track.nrhs);
        }
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

    /// Width of the right-hand-side track (`None` for factor-only streams).
    pub fn nrhs(&self) -> Option<usize> {
        self.rhs.as_ref().map(|t| t.nrhs)
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

    fn check_cols(&self, b: MatRef<'_>) -> Result<(), PlanError> {
        if b.cols() != self.n {
            return Err(PlanError::Update(UpdateError::ShapeMismatch {
                order: self.n,
                rows: b.rows(),
                cols: b.cols(),
            }));
        }
        Ok(())
    }

    /// Every update must agree with the stream's right-hand-side mode: a
    /// plain update on a tracked stream would silently desynchronize
    /// `d = Aᵀb` from the factor, a `_with` update on a factor-only stream
    /// has nowhere to fold its rows, and a supplied block must pair
    /// one-to-one with the row delta at the track's width.
    fn check_rhs_pairing(&self, k: usize, rhs: Option<MatRef<'_>>, op: &'static str) -> Result<(), PlanError> {
        match (self.rhs.as_ref(), rhs) {
            (None, None) => Ok(()),
            (None, Some(_)) => Err(PlanError::StreamRhsMissing { op }),
            (Some(_), None) => Err(PlanError::StreamRhsRequired { op }),
            (Some(track), Some(c)) => {
                if c.rows() != k || c.cols() != track.nrhs {
                    Err(PlanError::RhsShapeMismatch {
                        expected: (k, track.nrhs),
                        got: (c.rows(), c.cols()),
                    })
                } else {
                    Ok(())
                }
            }
        }
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
    /// rank-k Gram update from pooled arena scratch (zero heap allocations
    /// when warm and the history capacity was
    /// [reserved](StreamingQr::reserve_rows)). When the update pushes
    /// [`drift`](StreamingQr::drift) past the threshold a full refresh runs
    /// afterwards and the returned status says so. A delta whose appended
    /// Gram matrix is not positive definite fails inside the kernel
    /// ([`PlanError::Update`] of [`UpdateError::NotPositiveDefinite`]) and
    /// leaves the stream untouched.
    pub fn append_rows(&mut self, b: MatRef<'_>) -> Result<StreamStatus, PlanError> {
        self.append_impl(b, None, "append_rows")
    }

    /// [`append_rows`](StreamingQr::append_rows) for a least-squares stream:
    /// folds `b`'s rows into the factor **and** their right-hand sides `c`
    /// (one row each, `nrhs` wide) into the projection `d = Aᵀb`, keeping
    /// the two transactionally in step — `d`, the histories, and the
    /// counters are only touched once the factor update has committed.
    pub fn append_rows_with(&mut self, b: MatRef<'_>, c: MatRef<'_>) -> Result<StreamStatus, PlanError> {
        self.append_impl(b, Some(c), "append_rows_with")
    }

    fn append_impl(
        &mut self,
        b: MatRef<'_>,
        rhs: Option<MatRef<'_>>,
        op: &'static str,
    ) -> Result<StreamStatus, PlanError> {
        self.check_cols(b)?;
        self.check_rhs_pairing(b.rows(), rhs, op)?;
        let k = b.rows();
        if k == 0 {
            return Ok(self.status(false));
        }
        {
            let mut ws = self.plan.workspace().checkout();
            rank_k_append(self.r.as_mut(), b, self.plan.backend().get(), &mut ws)?;
        }
        // The factor update committed; everything below is infallible, so
        // `R`, `d`, and the histories move together or not at all.
        if let (Some(track), Some(c)) = (self.rhs.as_mut(), rhs) {
            track.fold_delta(1.0, b, c);
            for i in 0..k {
                track.bhist.extend_from_slice(c.row(i));
            }
        }
        for i in 0..k {
            self.history.extend_from_slice(b.row(i));
        }
        self.live += k;
        self.appends += 1;
        self.bump_drift(1.0);
        Ok(self.finish_update())
    }

    /// Removes the `k = b.rows()` **oldest** rows from the factor (sliding
    /// window). `b` must be bitwise the oldest rows (enforced;
    /// [`PlanError::StreamHistoryMismatch`] otherwise). Downdating below `n`
    /// remaining rows is rejected as [`PlanError::NotTall`].
    pub fn downdate_rows(&mut self, b: MatRef<'_>) -> Result<StreamStatus, PlanError> {
        self.downdate_impl(b, None, "downdate_rows")
    }

    /// [`downdate_rows`](StreamingQr::downdate_rows) for a least-squares
    /// stream: removes the oldest rows from the factor **and** subtracts
    /// their right-hand-side contribution from `d = Aᵀb`. `c` must be
    /// bitwise the right-hand sides that arrived with those rows (enforced
    /// like the rows themselves).
    pub fn downdate_rows_with(&mut self, b: MatRef<'_>, c: MatRef<'_>) -> Result<StreamStatus, PlanError> {
        self.downdate_impl(b, Some(c), "downdate_rows_with")
    }

    fn downdate_impl(
        &mut self,
        b: MatRef<'_>,
        rhs: Option<MatRef<'_>>,
        op: &'static str,
    ) -> Result<StreamStatus, PlanError> {
        self.check_cols(b)?;
        self.check_rhs_pairing(b.rows(), rhs, op)?;
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
        let oldest = self.history_view();
        if let Some(row) = (0..k).find(|&i| oldest.row(i) != b.row(i)) {
            return Err(PlanError::StreamHistoryMismatch { row });
        }
        if let (Some(track), Some(c)) = (self.rhs.as_ref(), rhs) {
            let oldest = MatRef::from_slice(&track.bhist[self.start * track.nrhs..], self.live, track.nrhs);
            if let Some(row) = (0..k).find(|&i| oldest.row(i) != c.row(i)) {
                return Err(PlanError::StreamHistoryMismatch { row });
            }
        }
        let min_alpha_sq = {
            let mut ws = self.plan.workspace().checkout();
            rank_k_downdate(self.r.as_mut(), b, self.plan.backend().get(), &mut ws)?
        };
        // Committed; keep `d` and the history cursors in step with `R`.
        if let (Some(track), Some(c)) = (self.rhs.as_mut(), rhs) {
            track.fold_delta(-1.0, b, c);
        }
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
            if let Some(track) = self.rhs.as_mut() {
                track.bhist.copy_within(self.start * track.nrhs.., 0);
                track.bhist.truncate(self.live * track.nrhs);
            }
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
    /// `Q` included. On a least-squares stream the projection `d = Aᵀb` is
    /// recomputed exactly from the retained `(A, b)` history at the same
    /// time, discarding the rounding the incremental deltas accumulate.
    /// `R` and `d` are untouched on error. Besides these explicit calls
    /// and [`snapshot`](StreamingQr::snapshot)s, a refresh runs only when
    /// an update's drift crosses the threshold.
    ///
    /// When the owning plan carries an enabled
    /// [`RetryPolicy`](crate::driver::RetryPolicy), a failed or
    /// condition-rejected attempt walks the plan's ladder, rung limits
    /// included, instead of parking the stream in `refresh_failed`.
    pub fn refresh(&mut self) -> Result<(), PlanError> {
        let result = self
            .plan
            .run_rows(self.history_view(), self.plan.retry_policy())
            .map(|accepted| self.r = accepted.run.r);
        match result {
            Ok(()) => {
                self.recompute_d();
                self.drift = 0.0;
                self.updates_since_refresh = 0;
                self.refreshes += 1;
                self.last_refresh_error = None;
                Ok(())
            }
            Err(e) => {
                self.last_refresh_error = Some(e.clone());
                Err(e)
            }
        }
    }

    /// Recomputes `d = Aᵀb` from the retained histories, streamed row by
    /// row (no `m`-sized temporary, no allocation).
    fn recompute_d(&mut self) {
        let n = self.n;
        let (start, live) = (self.start, self.live);
        let Some(track) = self.rhs.as_mut() else {
            return;
        };
        let nrhs = track.nrhs;
        let d = track.d.data_mut();
        d.fill(0.0);
        if nrhs == 1 {
            // d = Σᵢ bᵢ·aᵢ: one axpy per retained row (vectorizes).
            for i in start..start + live {
                let arow = &self.history[i * n..(i + 1) * n];
                blas1::axpy(track.bhist[i], arow, d);
            }
        } else {
            for i in start..start + live {
                let arow = &self.history[i * n..(i + 1) * n];
                let brow = &track.bhist[i * nrhs..(i + 1) * nrhs];
                for (j, &aij) in arow.iter().enumerate() {
                    let dst = &mut d[j * nrhs..(j + 1) * nrhs];
                    for (x, &bv) in dst.iter_mut().zip(brow) {
                        *x += aij * bv;
                    }
                }
            }
        }
    }

    /// Solves the live least-squares problem `min ‖Ax − b‖` over the rows
    /// currently folded in, returning the `n × nrhs` solution. Requires the
    /// right-hand-side track ([`QrPlan::stream_with_rhs`];
    /// [`PlanError::StreamRhsMissing`] otherwise). Allocates the output;
    /// use [`solve_into`](StreamingQr::solve_into) on hot paths.
    pub fn solve(&self) -> Result<Matrix, PlanError> {
        let track = self.rhs.as_ref().ok_or(PlanError::StreamRhsMissing { op: "solve" })?;
        let mut x = Matrix::zeros(self.n, track.nrhs);
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
    /// QR-level accuracy for moderately conditioned problems.
    pub fn solve_into(&self, x: &mut Matrix) -> Result<(), PlanError> {
        let track = self.rhs.as_ref().ok_or(PlanError::StreamRhsMissing { op: "solve" })?;
        let (n, nrhs) = (self.n, track.nrhs);
        if x.rows() != n || x.cols() != nrhs {
            return Err(PlanError::RhsShapeMismatch {
                expected: (n, nrhs),
                got: (x.rows(), x.cols()),
            });
        }
        // Semi-normal equations: RᵀR·x = d = Aᵀb.
        x.data_mut().copy_from_slice(track.d.data());
        trsm::trsm_left_lower_trans(self.r.as_ref(), x.as_mut());
        trsm::trsm_left_upper(self.r.as_ref(), x.as_mut());
        // One corrected-seminormal refinement step from the history:
        // w = Aᵀ(b − A·x), RᵀR·δ = w, x += δ — streamed row by row, so the
        // only scratch is the n × nrhs projection and one nrhs-wide
        // residual row.
        let mut ws = self.plan.workspace().checkout();
        let mut w = ws.take_matrix(n, nrhs);
        let mut e = ws.take_vec(nrhs);
        {
            let xd = x.data();
            let wd = w.data_mut();
            if nrhs == 1 {
                // Single right-hand side (the overwhelmingly common case):
                // the residual row is a scalar, so the sweep collapses to
                // one lane-split dot and one axpy per retained row — both
                // vectorize, where the general per-column loop cannot.
                for i in self.start..self.start + self.live {
                    let arow = &self.history[i * n..(i + 1) * n];
                    let resid = track.bhist[i] - blas1::dot_lanes(arow, xd);
                    blas1::axpy(resid, arow, wd);
                }
            } else {
                for i in self.start..self.start + self.live {
                    let arow = &self.history[i * n..(i + 1) * n];
                    e.copy_from_slice(&track.bhist[i * nrhs..(i + 1) * nrhs]);
                    for (j, &aij) in arow.iter().enumerate() {
                        let xrow = &xd[j * nrhs..(j + 1) * nrhs];
                        for (ev, &xv) in e.iter_mut().zip(xrow) {
                            *ev -= aij * xv;
                        }
                    }
                    for (j, &aij) in arow.iter().enumerate() {
                        let dst = &mut wd[j * nrhs..(j + 1) * nrhs];
                        for (wv, &ev) in dst.iter_mut().zip(e.iter()) {
                            *wv += aij * ev;
                        }
                    }
                }
            }
        }
        trsm::trsm_left_lower_trans(self.r.as_ref(), w.as_mut());
        trsm::trsm_left_upper(self.r.as_ref(), w.as_mut());
        for (xv, &dv) in x.data_mut().iter_mut().zip(w.data()) {
            *xv += dv;
        }
        ws.recycle_vec(e);
        ws.recycle(w);
        Ok(())
    }

    /// Materializes the factorization for the current row set.
    ///
    /// Forms `Q₁ = A·R⁻¹` from the retained rows and runs the paper's
    /// second CholeskyQR pass on it (`R₂ = chol(Q₁ᵀQ₁)ᵀ`, `Q = Q₁·R₂⁻¹`,
    /// `R ← R₂·R`), returning `Q`, the repaired `R`, and freshly computed
    /// orthogonality/residual diagnostics — the exact repair that gives
    /// batch CQR2 its ε-level orthogonality, so snapshot diagnostics meet
    /// the same bounds. The internal factor adopts the repaired `R` and
    /// drift resets (a snapshot counts as a refresh).
    pub fn snapshot(&mut self) -> Result<StreamSnapshot, PlanError> {
        let backend = self.plan.backend().get();
        let mut q = self.history_view().to_owned();
        backend.trsm_right_upper(self.r.as_ref(), q.as_mut());
        // Second pass: repair Q₁'s orthogonality and fold R₂ into R.
        {
            let n = self.n;
            let mut ws = self.plan.workspace().checkout();
            let mut g = ws.take_matrix_stale(n, n);
            backend.syrk_into(q.as_ref(), g.as_mut());
            let factored = potrf(g.as_mut(), backend, &mut ws);
            if factored.is_ok() {
                let (r2, r1) = (ws.take_transposed(g.as_ref()), ws.take_copy(self.r.as_ref()));
                backend.trsm_right_upper(r2.as_ref(), q.as_mut());
                trmm_upper_upper(r2.as_ref(), r1.as_ref(), self.r.as_mut());
                ws.recycle(r1);
                ws.recycle(r2);
            }
            ws.recycle(g);
            factored.map_err(PlanError::NotPositiveDefinite)?;
        }
        self.recompute_d();
        self.drift = 0.0;
        self.updates_since_refresh = 0;
        self.refreshes += 1;
        self.last_refresh_error = None;
        let (orthogonality, residual) = self.plan.diagnose(self.history_view(), &q, &self.r);
        Ok(StreamSnapshot {
            q: Some(q),
            r: self.r.clone(),
            rows: self.live,
            orthogonality_error: Some(orthogonality),
            residual_error: Some(residual),
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

    #[test]
    fn stream_tracks_appends_and_snapshot_is_orthonormal() {
        let (m0, n) = (64usize, 12usize);
        let a0 = well_conditioned(m0, n, 7);
        let mut s = plan(m0, n).stream(&a0).unwrap();
        assert_eq!(s.rows(), m0);
        for round in 0..5 {
            let b = gaussian_matrix(3, n, 100 + round);
            let st = s.append_rows(b.as_ref()).unwrap();
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
            let mut s = plan.stream(&a0).unwrap();
            let opened = plan.factor(&a0).unwrap();
            assert_eq!(opened.escalation.is_some_and(|e| e.escalated()), escalates);
            assert_eq!(s.r(), &opened.r);
            // Slide the well-conditioned window by `m0` rows — a delta as
            // wide as the window, folded like any other. A fold onto the
            // κ = 1e9 `R` breaks down numerically (its drift bound ε·κ² is
            // far above 1), so that stream re-derives R right after open.
            if !escalates {
                assert!(!s.append_rows(rows.view(m0, 0, m0, n)).unwrap().refreshed);
                s.downdate_rows(rows.view(0, 0, m0, n)).unwrap();
            }
            let window = s.history_view().to_owned();
            s.refresh().unwrap();
            let refactored = plan.factor(&window).unwrap();
            assert_eq!(refactored.escalation.is_some_and(|e| e.escalated()), escalates);
            assert_eq!(s.r(), &refactored.r);
        }
    }

    #[test]
    fn append_then_downdate_restores_the_factor() {
        let (m0, n) = (64usize, 8usize);
        let a0 = well_conditioned(m0, n, 3);
        let mut s = plan(m0, n).stream(&a0).unwrap();
        // Slide the window: append 4 new rows, drop the 4 oldest (which are
        // the first rows of a0).
        let b = gaussian_matrix(4, n, 9);
        s.append_rows(b.as_ref()).unwrap();
        let oldest = Matrix::from_view(a0.view(0, 0, 4, n));
        let st = s.downdate_rows(oldest.as_ref()).unwrap();
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
            let mut s = stream_plan.stream(&a0).unwrap();
            let b = gaussian_matrix(k, n, 6);
            let st = s.append_rows(b.as_ref()).unwrap();
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
        let mut s = plan(m0, n).stream(&a0).unwrap().with_drift_threshold(0.0);
        let b = gaussian_matrix(1, n, 12);
        let st = s.append_rows(b.as_ref()).unwrap();
        assert!(st.refreshed, "any positive drift exceeds a zero threshold");
        assert_eq!(s.drift(), 0.0);
    }

    #[test]
    fn sequential_refresh_matches_batch_r() {
        // After appends the live row count differs from the plan shape, so
        // refresh takes the sequential CQR2 path; its R must agree with a
        // batch factor of the same rows.
        let (m0, n) = (60usize, 16usize);
        let a0 = well_conditioned(m0, n, 17);
        let mut s = plan(m0, n).stream(&a0).unwrap();
        let b = gaussian_matrix(4, n, 18);
        s.append_rows(b.as_ref()).unwrap();
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

    #[test]
    fn downdating_below_n_rows_is_not_tall() {
        let n = 8usize;
        let a0 = well_conditioned(n + 4, n, 19);
        let p = QrPlan::new(n + 4, n)
            .algorithm(Algorithm::Cqr2_1d)
            .grid(GridShape::one_d(1).unwrap())
            .build()
            .unwrap();
        let mut s = p.stream(&a0).unwrap();
        let oldest = Matrix::from_view(a0.view(0, 0, 8, n));
        let err = s.downdate_rows(oldest.as_ref()).unwrap_err();
        assert!(matches!(err, PlanError::NotTall { m: 4, n: 8 }), "{err:?}");
    }
}
