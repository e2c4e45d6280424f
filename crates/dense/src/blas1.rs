//! Level-1 vector kernels used throughout the blocked algorithms.
//!
//! [`axpy`] and [`dot_lanes`] run on the widest instruction set the CPU has
//! (the blocked backend's `Isa` dispatch), multiplying then adding exactly
//! as their loops say, so every ISA gives the same bits.

use crate::backend::blocked::{isa, isa_dispatch};

/// `y ← y + a·x`.
pub fn axpy(a: f64, x: &[f64], y: &mut [f64]) {
    axpy_isa(isa(), a, x, y);
}

#[inline(always)]
fn axpy_body(a: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

isa_dispatch! {
    fn axpy_isa(a: f64, x: &[f64], y: &mut [f64]) => axpy_body
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
/// ε-level summations); reach for this on long vectors in hot loops. The
/// split and the order below are the contract: lane `l` sums elements
/// `l, l + 8, …` of the whole chunks, the tail is summed in order, and the
/// result is `Σ lanes + tail`.
pub fn dot_lanes(x: &[f64], y: &[f64]) -> f64 {
    dot_lanes_isa(isa(), x, y)
}

isa_dispatch! {
    fn dot_lanes_isa(x: &[f64], y: &[f64]) -> f64 => dot_lanes_body
}

#[inline(always)]
fn dot_lanes_body(x: &[f64], y: &[f64]) -> f64 {
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

    /// Every ISA's build gives the bits of the plain loops, including the
    /// 8-lane split of `dot_lanes`, at lengths on and off the lane count.
    #[test]
    fn level1_bodies_are_bitwise_the_loops_under_every_isa() {
        use crate::backend::blocked::Isa;
        for which in Isa::available() {
            for len in [0usize, 1, 7, 8, 9, 31, 64, 100, 128, 4099] {
                let x: Vec<f64> = (0..len).map(|i| (i as f64 * 0.7).sin() * 1e3).collect();
                let y: Vec<f64> = (0..len).map(|i| (i as f64 * 0.3).cos() - 0.25).collect();
                let mut lanes = [0.0f64; 8];
                let whole = len / 8 * 8;
                for (i, (a, b)) in x.iter().zip(&y).take(whole).enumerate() {
                    lanes[i % 8] += a * b;
                }
                let tail = x[whole..].iter().zip(&y[whole..]).fold(0.0, |t, (a, b)| t + a * b);
                let want = lanes.iter().sum::<f64>() + tail;
                assert_eq!(
                    dot_lanes_isa(which, &x, &y).to_bits(),
                    want.to_bits(),
                    "{which:?} len {len}"
                );
                let (mut got, mut want) = (y.clone(), y.clone());
                for (w, v) in want.iter_mut().zip(&x) {
                    *w += -1.3 * v;
                }
                axpy_isa(which, -1.3, &x, &mut got);
                assert!(
                    got.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()),
                    "{which:?} len {len}"
                );
            }
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
