//! Cyclic distribution index arithmetic.
//!
//! A dimension of `total` indices distributed cyclically over `procs`
//! processors assigns global index `g` to processor `g % procs` as local
//! index `g / procs`. The paper chooses cyclic (§II-C/D) because the leading
//! and trailing halves of a dimension — the submatrices the CFR3D recursion
//! works on — are then themselves cyclically distributed over all processors
//! with contiguous local index ranges.

/// Processor owning global index `g`.
#[inline]
pub fn owner_of_global(g: usize, procs: usize) -> usize {
    g % procs
}

/// Global index of local index `l` on processor `p`.
#[inline]
pub fn local_to_global(l: usize, p: usize, procs: usize) -> usize {
    l * procs + p
}

/// Number of local indices processor `p` holds out of `total`.
#[inline]
pub fn local_count(total: usize, p: usize, procs: usize) -> usize {
    (total + procs - 1 - p) / procs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let procs = 4;
        for g in 0..23 {
            let p = owner_of_global(g, procs);
            let l = g / procs;
            assert_eq!(local_to_global(l, p, procs), g);
        }
    }

    #[test]
    fn counts_partition_totals() {
        for total in [0usize, 1, 7, 8, 9, 64] {
            for procs in [1usize, 2, 3, 4, 8] {
                let sum: usize = (0..procs).map(|p| local_count(total, p, procs)).sum();
                assert_eq!(sum, total, "total={total} procs={procs}");
            }
        }
    }

    #[test]
    fn divisible_counts_are_even() {
        for p in 0..8 {
            assert_eq!(local_count(64, p, 8), 8);
        }
    }

    #[test]
    fn leading_half_is_contiguous_prefix() {
        // The CFR3D property: for procs | half, global indices < half map to
        // local indices < half/procs on every processor.
        let procs = 4;
        let n = 32;
        let half = n / 2;
        for g in 0..n {
            let l = g / procs;
            if g < half {
                assert!(l < half / procs);
            } else {
                assert!(l >= half / procs);
            }
        }
    }
}
