//! # mcsim-bench — simulator throughput benches
//!
//! The benches in `benches/` measure the *simulator's* speed, so
//! regressions in the implementation itself are visible;
//! `step_throughput` gates the discrete-event engine against
//! `BENCH_step_throughput.json`. The paper's numbers live in
//! EXPERIMENTS.md, whose tables `tests/experiments.rs` renders from the
//! simulator and checks.
