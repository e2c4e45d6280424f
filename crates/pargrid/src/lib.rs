//! Processor grids and data distributions for CA-CQR2.
//!
//! The paper runs its algorithms over a tunable `c × d × c` processor grid
//! `Π` (§III-B): dimension `x` (size `c`) partitions matrix *columns*,
//! dimension `y` (size `d`) partitions matrix *rows*, and dimension `z`
//! (size `c`) indexes *replicas*. Setting `d = c` recovers the cubic grid of
//! 3D-CQR2 (§III-A); `c = 1` recovers the 1D grid of 1D-CQR2 (§II-F).
//!
//! * [`GridShape`] — shape arithmetic and rank ↔ `(x, y, z)` mapping.
//! * [`TunableComms`] / [`CubeComms`] — the communicator families each
//!   algorithm needs (rows `Π[:,y,z]`, depth `Π[x,y,:]`, contiguous y-groups,
//!   strided y-classes, and `c × c × c` subcubes), built collectively.
//! * [`dist`] — cyclic distribution index math. The paper uses a cyclic
//!   layout because it keeps every submatrix of the CFR3D recursion
//!   load-balanced across the whole grid.
//! * [`DistMatrix`] — a local block plus its distribution descriptor, with
//!   scatter/gather helpers used by tests, the reproduction bins, and the
//!   drivers' one remaining packed copy (a column-cyclic operand block).
//! * [`CyclicWindows`] — disjoint write handles on the cyclic pieces of one
//!   preallocated output, so ranks write results in place.

pub mod dist;
pub mod distmat;
pub mod grid;
pub mod window;

pub use dist::{local_count, local_to_global, owner_of_global};
pub use distmat::DistMatrix;
pub use grid::{CubeComms, GridError, GridShape, TunableComms};
pub use window::{CyclicWindow, CyclicWindows};
