//! # mcsim-bench — the machine-loop throughput gate
//!
//! `benches/step_throughput.rs` measures the *simulator's* speed and
//! gates the discrete-event engine against `BENCH_step_throughput.json`.
//! End-to-end rates (sweeps, the HTTP service) are measured by the
//! standalone `benchmark/` crate. The paper's numbers live in
//! EXPERIMENTS.md, whose tables `tests/experiments.rs` renders from the
//! simulator and checks.
