//! The rrb benchmark: four seeded workloads driven through the public
//! APIs of `rrb::spec`, `rrb::campaign`, `rrb::executor`, `rrb::store`,
//! `rrb::sim`, `rrb::statics` and `rrb-serve`, reported end to end and,
//! in a separate traced run, layer by layer. See `perfbench/README.md`.

pub mod inputs;
pub mod pipeline;
pub mod report;
pub mod stats;
pub mod trace;
pub mod workloads;
