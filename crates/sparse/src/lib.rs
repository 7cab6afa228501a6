//! `sparse` — sparse-matrix substrate for the BGPC reproduction.
//!
//! The ICPP'17 paper colors the *columns* of sparse matrices from the UFL
//! (SuiteSparse) collection, treating rows as the nets that define the
//! partial-coloring neighborhood. This crate provides everything the rest of
//! the workspace needs from the matrix side:
//!
//! * [`Csr`] / [`Coo`] — pattern-only compressed sparse row storage and a
//!   triplet builder (values are irrelevant to coloring).
//! * [`mm`] — Matrix Market I/O so real SuiteSparse files can be used when
//!   available.
//! * [`gen`] — deterministic synthetic generators (stencil meshes, banded
//!   systems, RMAT/power-law graphs, skewed bipartite rating matrices) that
//!   stand in for the paper's UFL inputs.
//! * [`datasets`] — a registry of the paper's eight test matrices with their
//!   Table II structural signatures, each mapped to a generator recipe that
//!   reproduces the signature at a configurable scale.
//! * [`stats`] — degree-distribution statistics (max/mean/σ of row and
//!   column cardinalities) used to validate the generators against Table II.
//! * [`perm`] — locality-aware relabelings (degree-sort, BFS/CM) with
//!   invert/unpermute helpers so colorings are reported in original ids.
//! * [`prefetch`] — software prefetch hints for the irregular CSR gathers.
//!
//! [`Csr`] stores `u32` row pointers and column indices; a pattern with
//! more than `u32::MAX` nonzeros is refused at construction.

pub mod bin_io;
pub mod coo;
pub mod csr;
pub mod datasets;
pub mod gen;
pub mod mm;
pub mod perm;
pub mod prefetch;
pub mod stats;

pub use coo::Coo;
pub use csr::{Csr, CsrError};
pub use datasets::{Dataset, Instance};
pub use perm::{invert_perm, unpermute, LocalityOrder};
pub use stats::DegreeStats;
