//! Query compilation and the `PreparedQuery` front-end.

pub mod counting;
pub mod fragment;
pub mod naive;
pub mod prepared;
mod probe;
