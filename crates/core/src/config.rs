//! Algorithm parameters: base-case size `n₀`, `InverseDepth`, and the
//! node-local kernel backend.

use dense::BackendKind;

/// Why a set of CFR3D parameters is invalid for a given matrix/grid.
///
/// Every variant captures the offending values, so a caller (or the
/// [`crate::driver::PlanError`] wrapper) can report the exact constraint
/// that failed instead of a formatted string.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ParamError {
    /// `n`, `c`, or `n₀` is not a power of two (the recursion halves
    /// dimensions, so every one of them must be).
    NotPowerOfTwo {
        /// Which quantity failed (`"n"`, `"c"`, or `"n0"`).
        what: &'static str,
        /// The offending value.
        value: usize,
    },
    /// The base-case block must give every processor of a slice at least one
    /// row/column: `n₀ ≥ c`.
    BaseBelowGridEdge {
        /// Requested base-case size.
        base_size: usize,
        /// Cube edge.
        c: usize,
    },
    /// The base case cannot exceed the matrix: `n₀ ≤ n`.
    BaseExceedsMatrix {
        /// Requested base-case size.
        base_size: usize,
        /// Matrix dimension being factored.
        n: usize,
    },
    /// `InverseDepth` is limited by the recursion depth `φ = log₂(n/n₀)`.
    InverseDepthTooDeep {
        /// Requested depth.
        inverse_depth: usize,
        /// Available recursion depth `φ`.
        levels: usize,
    },
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::NotPowerOfTwo { what, value } => {
                write!(f, "{what}={value} must be a power of two")
            }
            ParamError::BaseBelowGridEdge { base_size, c } => {
                write!(f, "base size n0={base_size} must be at least the cube edge c={c}")
            }
            ParamError::BaseExceedsMatrix { base_size, n } => {
                write!(f, "base size n0={base_size} exceeds matrix dimension n={n}")
            }
            ParamError::InverseDepthTooDeep { inverse_depth, levels } => {
                write!(f, "inverse_depth={inverse_depth} exceeds recursion depth {levels}")
            }
        }
    }
}

impl std::error::Error for ParamError {}

/// Tuning parameters of CFR3D (Algorithm 3) and the `Q = A·R⁻¹` solve.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CfrParams {
    /// Base-case dimension `n₀`: the recursion stops when the current block
    /// has this global dimension, gathers it onto every processor of each
    /// slice, and factors it redundantly. The paper's default minimizes
    /// bandwidth over synchronization with `n₀ = n/P^{2/3} = n/c²` (§II-D).
    pub base_size: usize,
    /// Number of *top* recursion levels at which the triangular inverse
    /// off-diagonal block `Y₂₁` is **not** formed (the paper's
    /// `InverseDepth`). `0` reproduces the plain algorithm (full explicit
    /// `L⁻¹`); level `k` keeps the inverse only in diagonal blocks of
    /// dimension `n/2ᵏ`, and every application of `R⁻¹` recurses through
    /// block triangular solves built on MM3D — trading up to ~2× fewer
    /// Cholesky-inverse flops for extra synchronization (§III-A).
    pub inverse_depth: usize,
    /// Node-local kernel backend for every gemm/syrk/trsm the distributed
    /// schedule performs. Changing the backend changes wall-clock speed and
    /// last-bit rounding, but never the communication schedule or the flop
    /// counts charged to the α-β-γ ledger.
    pub backend: BackendKind,
}

impl CfrParams {
    /// Validates parameters for factoring an `n × n` matrix over a cube of
    /// edge `c`, using the process-default kernel backend.
    ///
    /// Requirements: `n`, `c`, `base_size` powers of two with
    /// `c ≤ base_size ≤ n` (each processor must own at least one row/column
    /// of the base block) and `inverse_depth ≤ log₂(n / base_size)`.
    pub fn validated(n: usize, c: usize, base_size: usize, inverse_depth: usize) -> Result<CfrParams, ParamError> {
        CfrParams {
            base_size,
            inverse_depth,
            backend: BackendKind::default_kind(),
        }
        .validate(n, c)
    }

    /// Validates `self` for factoring an `n × n` matrix over a cube of edge
    /// `c`, preserving every field — including a previously chosen
    /// [`BackendKind`] — on success.
    pub fn validate(self, n: usize, c: usize) -> Result<CfrParams, ParamError> {
        for (what, value) in [("n", n), ("c", c), ("n0", self.base_size)] {
            if !value.is_power_of_two() {
                return Err(ParamError::NotPowerOfTwo { what, value });
            }
        }
        if self.base_size < c {
            return Err(ParamError::BaseBelowGridEdge {
                base_size: self.base_size,
                c,
            });
        }
        if self.base_size > n {
            return Err(ParamError::BaseExceedsMatrix {
                base_size: self.base_size,
                n,
            });
        }
        let levels = self.levels(n);
        if self.inverse_depth > levels {
            return Err(ParamError::InverseDepthTooDeep {
                inverse_depth: self.inverse_depth,
                levels,
            });
        }
        Ok(self)
    }

    /// The paper's bandwidth-minimizing default: `n₀ = n/c²` (clamped to
    /// `[c, n]`), `inverse_depth = 0`.
    pub fn default_for(n: usize, c: usize) -> CfrParams {
        let base = (n / (c * c)).max(c).min(n);
        CfrParams {
            base_size: base,
            inverse_depth: 0,
            backend: BackendKind::default_kind(),
        }
    }

    /// Recursion depth `φ = log₂(n / n₀)` when factoring an `n × n` matrix.
    pub fn levels(&self, n: usize) -> usize {
        debug_assert!(n >= self.base_size);
        (n / self.base_size).trailing_zeros() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        // n₀ = n / c².
        let p = CfrParams::default_for(256, 4);
        assert_eq!(p.base_size, 16);
        assert_eq!(p.levels(256), 4);
    }

    #[test]
    fn default_clamps_to_cube_edge() {
        let p = CfrParams::default_for(32, 4);
        assert_eq!(p.base_size, 4); // n/c² = 2 < c = 4, clamp up
    }

    #[test]
    fn c_equals_one_degenerates_to_sequential() {
        let p = CfrParams::default_for(64, 1);
        assert_eq!(p.base_size, 64);
        assert_eq!(p.levels(64), 0);
    }

    #[test]
    fn validation_rejects_bad_configs_with_typed_errors() {
        assert_eq!(
            CfrParams::validated(64, 2, 1, 0),
            Err(ParamError::BaseBelowGridEdge { base_size: 1, c: 2 })
        );
        assert_eq!(
            CfrParams::validated(64, 2, 128, 0),
            Err(ParamError::BaseExceedsMatrix { base_size: 128, n: 64 })
        );
        assert_eq!(
            CfrParams::validated(48, 2, 16, 0),
            Err(ParamError::NotPowerOfTwo { what: "n", value: 48 })
        );
        assert_eq!(
            CfrParams::validated(64, 2, 16, 3),
            Err(ParamError::InverseDepthTooDeep {
                inverse_depth: 3,
                levels: 2
            })
        );
        assert!(CfrParams::validated(64, 2, 16, 2).is_ok());
    }

    #[test]
    fn errors_are_std_errors_with_display() {
        let e = CfrParams::validated(48, 2, 16, 0).unwrap_err();
        let msg = format!("{e}");
        assert!(msg.contains("48"), "display must carry the offending value: {msg}");
        let _: &dyn std::error::Error = &e;
    }

    #[test]
    fn validation_preserves_chosen_backend() {
        // The historical bug: validation silently reset the backend to the
        // default. A pinned backend must survive it.
        for kind in BackendKind::ALL {
            let p = CfrParams {
                backend: kind,
                ..CfrParams::validated(64, 2, 16, 1).unwrap()
            };
            assert_eq!(p.validate(64, 2).unwrap().backend, kind);
            let q = CfrParams {
                backend: kind,
                ..CfrParams::default_for(64, 2)
            }
            .validate(64, 2)
            .unwrap();
            assert_eq!(q.backend, kind);
        }
    }
}
