//! Reference implementations kept as test oracles.
//!
//! Library code never calls this module; only the other crates'
//! `reference` modules build on it.  The equivalence suites do, to hold the
//! production paths byte-identical to the straightforward definitions they
//! replaced.

pub mod csv;
pub mod index;

pub use index::HashIndex;
