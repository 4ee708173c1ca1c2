//! Reference implementations kept as test oracles.
//!
//! Library code never calls this module.  The equivalence suites do, to
//! hold the production paths byte-identical to the straightforward
//! definitions they replaced.

pub mod csv;
