//! Comparison baselines: the two hand-picked "selected by experience"
//! parameter sets from the paper's evaluation (§V-A2). cuML's fixed tile
//! is `codegen::KernelParams::cuml`.

pub mod params;

pub use params::{parameter1, parameter2};
