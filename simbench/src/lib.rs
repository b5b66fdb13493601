//! End-to-end benchmark of the MYRTUS continuum simulator.
//!
//! `simbench --workload <storm|surge|burst-vm> --seed <n> --seconds <s>
//! --trace <0|1>` runs one workload in child processes (one run each)
//! for about `--seconds`, checks every run's outputs and prints one
//! JSON object as its last line: the end-to-end metrics with
//! `--trace 0`, the per-layer split with `--trace 1`. See `README.md`
//! beside this crate for the workloads and how to read the split.

pub mod catalogue;
pub mod parent;
pub mod spans;
pub mod workloads;
