//! Single-VM experiment runs: the building block of the paper's evaluation
//! (Sec. 6).
//!
//! [`ExperimentParams`] sizes the (scaled-down) machine and the traces, and
//! a [`RunSpec`] names everything else one run varies: workload, mechanism,
//! memory mode, paging policy, structure sizes, co-tag width, directory
//! design and hypervisor.  The figures themselves are data: the `FIGURES`
//! table of `hatric_host::scenario` sweeps these runs into report rows
//! (`scenarios run fig2` … `scenarios run xen`).
//!
//! | Runner | Runs |
//! |---|---|
//! | [`execute`] | one workload under one [`RunSpec`] |
//! | [`execute_traced`] | the same, with sim-time tracing, plus its Chrome trace |
//! | [`execute_mix`] | one multiprogrammed SPEC mix (Fig. 10) |

pub mod common;

pub use common::{execute, execute_mix, execute_traced, ExperimentParams, RunSpec};
