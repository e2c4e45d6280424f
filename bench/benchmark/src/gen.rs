//! Seeded input generation. Everything the library is asked to factor is
//! made here from `--seed`; the library receives only the matrices, so a
//! change to `dense::random` can never change the benchmark's inputs.

use dense::Matrix;

/// SplitMix64: tiny, fast, and good enough to fill matrices.
pub struct Rng(u64);

impl Rng {
    /// An independent stream per `(seed, tag)`: each workload draws its
    /// inputs, schedule and right-hand sides from differently tagged streams.
    pub fn new(seed: u64, tag: u64) -> Rng {
        let mut rng = Rng(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` below is finite).
    fn uniform(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform index in `[0, n)`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Standard normal by Box–Muller.
    pub fn gaussian(&mut self) -> f64 {
        let (u1, u2) = (self.uniform(), self.uniform());
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// An `m × n` standard-Gaussian matrix: for `m ≥ 2n` its condition number is
/// a small constant with overwhelming probability, the regime in which
/// CholeskyQR2 is unconditionally accurate.
pub fn gaussian_matrix(rng: &mut Rng, m: usize, n: usize) -> Matrix {
    Matrix::from_vec(m, n, (0..m * n).map(|_| rng.gaussian()).collect())
}

/// An `m × n` matrix with 2-norm condition number `kappa`: `U·Σ·Vᵀ` with
/// log-spaced singular values in `[1/kappa, 1]` and orthonormal `U`, `V`
/// from twice-applied modified Gram–Schmidt on Gaussian matrices.
pub fn matrix_with_condition(rng: &mut Rng, m: usize, n: usize, kappa: f64) -> Matrix {
    let u = orthonormal_columns(gaussian_matrix(rng, m, n));
    let v = orthonormal_columns(gaussian_matrix(rng, n, n));
    let sigma: Vec<f64> = (0..n)
        .map(|j| kappa.powf(-(j as f64) / (n - 1).max(1) as f64))
        .collect();
    Matrix::from_fn(m, n, |i, j| (0..n).map(|k| u.get(i, k) * sigma[k] * v.get(j, k)).sum())
}

fn orthonormal_columns(mut a: Matrix) -> Matrix {
    let (m, n) = (a.rows(), a.cols());
    for j in 0..n {
        for _pass in 0..2 {
            for k in 0..j {
                let dot: f64 = (0..m).map(|i| a.get(i, k) * a.get(i, j)).sum();
                for i in 0..m {
                    let v = a.get(i, j) - dot * a.get(i, k);
                    a.set(i, j, v);
                }
            }
        }
        let norm = (0..m).map(|i| a.get(i, j).powi(2)).sum::<f64>().sqrt();
        for i in 0..m {
            let v = a.get(i, j) / norm;
            a.set(i, j, v);
        }
    }
    a
}

/// A symmetric positive definite `n × n` matrix (Gram matrix of a Gaussian
/// `2n × n` panel), for the Cholesky-family kernel rows.
pub fn spd_matrix(rng: &mut Rng, n: usize) -> Matrix {
    let g = gaussian_matrix(rng, 2 * n, n);
    let mut s = vec![0.0; n * n];
    for row in g.data().chunks_exact(n) {
        for (i, &gi) in row.iter().enumerate() {
            for (sv, &gj) in s[i * n..(i + 1) * n].iter_mut().zip(row) {
                *sv += gi * gj;
            }
        }
    }
    Matrix::from_vec(n, n, s)
}
