//! Level-1 vector kernels used throughout the blocked algorithms.

/// `y ← y + a·x`.
#[inline]
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Dot product `xᵀy`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    x.iter().zip(y).map(|(a, b)| a * b).sum()
}

/// Dot product with 8-way lane-split accumulation: the independent
/// partial sums let the compiler vectorize what [`dot`]'s strictly
/// sequential reduction cannot. Rounding differs from [`dot`] (both are
/// ε-level summations); reach for this on long vectors in hot loops.
#[inline]
pub fn dot_lanes(x: &[f64], y: &[f64]) -> f64 {
    debug_assert_eq!(x.len(), y.len());
    const LANES: usize = 8;
    let chunks = x.len() / LANES;
    let mut acc = [0.0f64; LANES];
    for c in 0..chunks {
        let xb = &x[c * LANES..(c + 1) * LANES];
        let yb = &y[c * LANES..(c + 1) * LANES];
        for l in 0..LANES {
            acc[l] += xb[l] * yb[l];
        }
    }
    let mut tail = 0.0;
    for i in chunks * LANES..x.len() {
        tail += x[i] * y[i];
    }
    acc.iter().sum::<f64>() + tail
}

/// Euclidean norm with scaling to avoid overflow on extreme inputs.
pub fn nrm2(x: &[f64]) -> f64 {
    let amax = x.iter().fold(0.0f64, |m, &v| m.max(v.abs()));
    if amax == 0.0 || !amax.is_finite() {
        return amax;
    }
    let mut sum = 0.0;
    for &v in x {
        let s = v / amax;
        sum += s * s;
    }
    amax * sum.sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn axpy_accumulates() {
        let x = [1.0, 2.0, 3.0];
        let mut y = [10.0, 20.0, 30.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0, 36.0]);
    }

    #[test]
    fn dot_matches_manual() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn dot_lanes_matches_dot() {
        for len in [0usize, 1, 7, 8, 9, 31, 64, 100] {
            let x: Vec<f64> = (0..len).map(|i| (i as f64).sin()).collect();
            let y: Vec<f64> = (0..len).map(|i| (i as f64).cos() + 0.5).collect();
            let a = dot(&x, &y);
            let b = dot_lanes(&x, &y);
            assert!((a - b).abs() <= 1e-12 * a.abs().max(1.0), "len {len}: {a} vs {b}");
        }
    }

    #[test]
    fn nrm2_is_scaled() {
        let big = 1e200;
        let x = [3.0 * big, 4.0 * big];
        let n = nrm2(&x);
        assert!((n - 5.0 * big).abs() / (5.0 * big) < 1e-15);
    }

    #[test]
    fn nrm2_zero() {
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
        assert_eq!(nrm2(&[]), 0.0);
    }
}
