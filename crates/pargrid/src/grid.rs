//! Tunable `c × d × c` processor grids and their communicator families.

use simgrid::{Comm, Rank};

/// Why a requested grid shape is invalid.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GridError {
    /// A grid dimension was zero.
    ZeroDimension,
    /// `c` or `d` is not a power of two.
    NotPowerOfTwo {
        /// Requested replication-dimension size.
        c: usize,
        /// Requested row-dimension size.
        d: usize,
    },
    /// The tunable grid requires `d ≥ c` so the y dimension splits into
    /// whole `c × c × c` subcubes.
    DSmallerThanC {
        /// Requested replication-dimension size.
        c: usize,
        /// Requested row-dimension size.
        d: usize,
    },
}

impl std::fmt::Display for GridError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GridError::ZeroDimension => write!(f, "grid dimensions must be positive"),
            GridError::NotPowerOfTwo { c, d } => {
                write!(f, "grid dimensions must be powers of two (got c={c}, d={d})")
            }
            GridError::DSmallerThanC { c, d } => {
                write!(f, "tunable grid requires d >= c (got c={c}, d={d})")
            }
        }
    }
}

impl std::error::Error for GridError {}

/// Shape of the tunable processor grid `Π`: `c × d × c` with `P = c²·d`.
///
/// Constraints (matching the regime of the paper's experiments): `c` and `d`
/// are powers of two and `d ≥ c`, so the `y` dimension divides evenly into
/// `d/c` contiguous groups of size `c`, each of which forms a `c × c × c`
/// subcube with the `x` and `z` dimensions.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridShape {
    /// Size of the `x` (column-partitioning) and `z` (replication) dimensions.
    pub c: usize,
    /// Size of the `y` (row-partitioning) dimension.
    pub d: usize,
}

impl GridShape {
    /// Validates and constructs a grid shape.
    pub fn new(c: usize, d: usize) -> Result<GridShape, GridError> {
        if c == 0 || d == 0 {
            return Err(GridError::ZeroDimension);
        }
        if !c.is_power_of_two() || !d.is_power_of_two() {
            return Err(GridError::NotPowerOfTwo { c, d });
        }
        if d < c {
            return Err(GridError::DSmallerThanC { c, d });
        }
        Ok(GridShape { c, d })
    }

    /// The cubic grid `c × c × c` used by 3D-CQR2.
    pub fn cubic(c: usize) -> Result<GridShape, GridError> {
        GridShape::new(c, c)
    }

    /// The 1D grid `1 × P × 1` used by 1D-CQR2.
    pub fn one_d(p: usize) -> Result<GridShape, GridError> {
        GridShape::new(1, p)
    }

    /// Total processor count `P = c²·d`.
    pub fn p(&self) -> usize {
        self.c * self.c * self.d
    }

    /// Number of `c × c × c` subcubes (`d / c`).
    pub fn subcubes(&self) -> usize {
        self.d / self.c
    }

    /// Grid coordinates of a global rank id. The canonical layout is
    /// `rank = x + y·c + z·c·d`.
    pub fn coords(&self, rank: usize) -> (usize, usize, usize) {
        debug_assert!(rank < self.p());
        let x = rank % self.c;
        let y = (rank / self.c) % self.d;
        let z = rank / (self.c * self.d);
        (x, y, z)
    }

    /// Global rank id of grid coordinates `(x, y, z)`.
    pub fn rank_of(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.c && y < self.d && z < self.c);
        x + y * self.c + z * self.c * self.d
    }
}

/// Communicators of a `c × c × c` cube (the whole grid for 3D-CQR2, or one
/// subcube of a tunable grid). Member indices coincide with the varying
/// coordinate: `row.my_index() == x`, `col.my_index() == ŷ`,
/// `depth.my_index() == z`, `slice.my_index() == ŷ·c + x`.
pub struct CubeComms {
    /// Cube edge length.
    pub c: usize,
    /// This rank's cube coordinates `(x, ŷ, z)` (ŷ is the within-cube row
    /// coordinate).
    pub coords: (usize, usize, usize),
    /// `Π[:, ŷ, z]` — varying `x` (size `c`).
    pub row: Comm,
    /// `Π[x, :, z]` — varying `ŷ` (size `c`).
    pub col: Comm,
    /// `Π[x, ŷ, :]` — varying `z` (size `c`).
    pub depth: Comm,
    /// `Π[:, :, z]` — varying `(x, ŷ)` (size `c²`), used by the CFR3D base
    /// case Allgather and the matrix transpose.
    pub slice: Comm,
}

impl CubeComms {
    /// Collectively builds cube communicators. `global_of` maps cube
    /// coordinates to global rank ids (for a subcube this embeds the group
    /// offset); `coords` are this rank's cube coordinates.
    pub fn build(
        rank: &mut Rank,
        c: usize,
        coords: (usize, usize, usize),
        global_of: impl Fn(usize, usize, usize) -> usize,
    ) -> CubeComms {
        let (x, yh, z) = coords;
        let row = Comm::subset(rank, (0..c).map(|i| global_of(i, yh, z)).collect());
        let col = Comm::subset(rank, (0..c).map(|j| global_of(x, j, z)).collect());
        let depth = Comm::subset(rank, (0..c).map(|k| global_of(x, yh, k)).collect());
        let mut slice_members: Vec<usize> = Vec::with_capacity(c * c);
        for j in 0..c {
            for i in 0..c {
                slice_members.push(global_of(i, j, z));
            }
        }
        slice_members.sort_unstable();
        let slice = Comm::subset(rank, slice_members);
        CubeComms {
            c,
            coords,
            row,
            col,
            depth,
            slice,
        }
    }

    /// Index of cube coordinates `(x, ŷ)` within the slice communicator.
    pub fn slice_index(&self, x: usize, yh: usize) -> usize {
        yh * self.c + x
    }
}

/// Communicators of the full tunable `c × d × c` grid (Algorithm 8).
pub struct TunableComms {
    /// Grid shape.
    pub shape: GridShape,
    /// This rank's grid coordinates `(x, y, z)`.
    pub coords: (usize, usize, usize),
    /// `Π[x, (y mod c)::c, z]` — the strided y-class of size `d/c`;
    /// Algorithm 8 line 4 allreduce across subcubes.
    pub ystride: Comm,
    /// The `c × c × c` subcube this rank belongs to (Algorithm 8 line 6),
    /// with cube coordinates `(x, y mod c, z)`. Its communicators are also
    /// the grid's own along each axis: `row` is `Π[:, y, z]` (line 1
    /// broadcast), `col` the contiguous y-group `Π[x, c·⌊y/c⌋ .. c·⌈y/c⌉, z]`
    /// (line 3 reduction), `depth` is `Π[x, y, :]` (line 5 broadcast).
    pub subcube: CubeComms,
}

impl TunableComms {
    /// Collectively builds the communicator family. Every rank must call
    /// this at the same program point with the same `shape`.
    pub fn build(rank: &mut Rank, shape: GridShape) -> TunableComms {
        assert_eq!(rank.world_size(), shape.p(), "grid shape must match world size");
        let (x, y, z) = shape.coords(rank.id());
        let (c, _d) = (shape.c, shape.d);
        let group = y / c;
        let ystride = Comm::subset(
            rank,
            (0..shape.subcubes())
                .map(|g| shape.rank_of(x, g * c + (y % c), z))
                .collect(),
        );
        let subcube = CubeComms::build(rank, c, (x, y % c, z), |i, j, k| shape.rank_of(i, group * c + j, k));
        TunableComms {
            shape,
            coords: (x, y, z),
            ystride,
            subcube,
        }
    }

    /// Index of this rank's subcube (its contiguous y-group), in `[0, d/c)`.
    pub fn group(&self) -> usize {
        self.coords.1 / self.shape.c
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simgrid::{run_spmd, SimConfig};

    #[test]
    fn shape_validation() {
        assert!(GridShape::new(2, 8).is_ok());
        assert!(GridShape::new(3, 8).is_err(), "non-power-of-two c");
        assert!(GridShape::new(4, 2).is_err(), "d < c");
        assert!(GridShape::new(0, 2).is_err());
        assert_eq!(GridShape::new(2, 8).unwrap().p(), 32);
        assert_eq!(GridShape::new(2, 8).unwrap().subcubes(), 4);
    }

    #[test]
    fn coords_round_trip() {
        let s = GridShape::new(2, 4).unwrap();
        for r in 0..s.p() {
            let (x, y, z) = s.coords(r);
            assert_eq!(s.rank_of(x, y, z), r);
        }
    }

    #[test]
    fn tunable_comm_indices_match_coordinates() {
        let shape = GridShape::new(2, 4).unwrap();
        let report = run_spmd(shape.p(), SimConfig::default(), move |rank| {
            let comms = TunableComms::build(rank, shape);
            let (x, y, z) = comms.coords;
            assert_eq!(comms.ystride.my_index(), y / shape.c);
            assert_eq!(comms.subcube.row.my_index(), x);
            assert_eq!(comms.subcube.col.my_index(), y % shape.c);
            assert_eq!(comms.subcube.depth.my_index(), z);
            assert_eq!(
                comms.subcube.slice.my_index(),
                comms.subcube.slice_index(x, y % shape.c)
            );
            (x, y, z)
        });
        // Every coordinate triple appears exactly once.
        let mut seen = std::collections::HashSet::new();
        for c in report.results {
            assert!(seen.insert(c));
        }
        assert_eq!(seen.len(), shape.p());
    }

    #[test]
    fn oversubscribed_placement_keeps_each_slice_on_one_core() {
        // The paper's 2 × 2 × 2 grid as 8 pinned ranks on 2 cores: every
        // replicated slice Π[:, :, z] lands on one core, so only depth
        // communicators cross cores.
        let shape = GridShape::new(2, 2).unwrap();
        let (p, cores) = (shape.p(), 2);
        let report = run_spmd(p, SimConfig::default(), move |rank| {
            let comms = TunableComms::build(rank, shape);
            comms.subcube.slice.members().to_vec()
        });
        for slice in report.results {
            let core = simgrid::pinned_core(slice[0], p, cores);
            assert!(
                slice.iter().all(|&r| simgrid::pinned_core(r, p, cores) == core),
                "{slice:?}"
            );
        }
    }

    #[test]
    fn subcube_collectives_are_isolated() {
        // Allreduce of the group id over each subcube's slice must stay
        // within the subcube: every member sees group · c².
        let shape = GridShape::new(2, 8).unwrap();
        let report = run_spmd(shape.p(), SimConfig::default(), move |rank| {
            let comms = TunableComms::build(rank, shape);
            let mut buf = vec![comms.group() as f64];
            comms.subcube.slice.allreduce(rank, &mut buf);
            (comms.group(), buf[0])
        });
        for (group, sum) in report.results {
            assert_eq!(sum, (group * shape.c * shape.c) as f64);
        }
    }

    #[test]
    fn one_d_grid_degenerates() {
        let shape = GridShape::one_d(8).unwrap();
        assert_eq!(shape.c, 1);
        assert_eq!(shape.subcubes(), 8);
        let report = run_spmd(8, SimConfig::default(), move |rank| {
            let comms = TunableComms::build(rank, shape);
            // Row, depth and y-group (the subcube's column) are singletons;
            // ystride spans everyone.
            assert_eq!(comms.subcube.row.size(), 1);
            assert_eq!(comms.subcube.depth.size(), 1);
            assert_eq!(comms.subcube.col.size(), 1);
            assert_eq!(comms.ystride.size(), 8);
            comms.coords.1
        });
        assert_eq!(report.results, (0..8).collect::<Vec<_>>());
    }
}
