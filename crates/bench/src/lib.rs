//! Benchmark harness regenerating every table and figure of the
//! gem5-Aladdin paper (MICRO 2016).
//!
//! Each `figNN` module regenerates one figure/table: it prints the same
//! rows/series the paper reports and writes a CSV under `results/`. Run
//! one figure with its binary, e.g.
//!
//! ```sh
//! cargo run --release -p aladdin-bench --bin fig08_pareto
//! ```
//!
//! or everything with
//!
//! ```sh
//! cargo run --release -p aladdin-bench --bin all_figures
//! ```
//!
//! Criterion microbenchmarks of the simulator's own components live in
//! `benches/`.
//!
//! Absolute cycle counts will not match the paper (its substrate was a
//! Zynq board and gem5; ours is a from-scratch simulator and scaled
//! MachSuite inputs) — the *shapes* are what reproduce: who wins, by
//! roughly what factor, and where the crossovers fall. See EXPERIMENTS.md
//! for the side-by-side reading.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig09;
pub mod fig10;

use std::io::Write as _;
use std::path::PathBuf;

use aladdin_accel::DatapathConfig;
use aladdin_core::{simulate, FlowResult, FlowSpec, MemKind, SocConfig};
use aladdin_ir::Trace;

/// Run one design point's flow on the clean harness. The figures sweep
/// only valid design points, so a failure is a bug.
///
/// # Panics
///
/// Panics if the simulation fails.
#[must_use]
pub fn run_flow(trace: &Trace, dp: &DatapathConfig, soc: &SocConfig, kind: MemKind) -> FlowResult {
    simulate(trace, dp, soc, &FlowSpec::new(kind)).expect("flow completes")
}

/// A datapath with `lanes` lanes over as many scratchpad partitions.
#[must_use]
pub fn square_dp(lanes: u32) -> DatapathConfig {
    DatapathConfig {
        lanes,
        partition: lanes,
        ..DatapathConfig::default()
    }
}

/// Directory figure CSVs are written to (`results/` at the repo root,
/// falling back to the current directory).
#[must_use]
pub fn results_dir() -> PathBuf {
    // The harness runs from the workspace root via cargo; prefer an
    // existing `results/` anywhere up the tree.
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let candidate = dir.join("results");
        if candidate.is_dir() {
            return candidate;
        }
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            let _ = std::fs::create_dir_all(&candidate);
            return candidate;
        }
        if !dir.pop() {
            let fallback = PathBuf::from("results");
            let _ = std::fs::create_dir_all(&fallback);
            return fallback;
        }
    }
}

/// Write a CSV file under [`results_dir`]; logs rather than fails on IO
/// errors so a read-only checkout still prints its tables.
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let path = results_dir().join(name);
    let mut out = match std::fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("note: could not write {}: {e}", path.display());
            return;
        }
    };
    let _ = writeln!(out, "{}", header.join(","));
    for row in rows {
        let _ = writeln!(out, "{}", row.join(","));
    }
    println!("[wrote {}]", path.display());
}

/// Render a proportional ASCII bar (for stacked-fraction figures).
#[must_use]
pub fn bar(fraction: f64, width: usize) -> String {
    let n = (fraction * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// A figure header banner.
pub fn banner(title: &str) {
    println!("\n=== {title} ===");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_dir_exists_after_call() {
        let d = results_dir();
        assert!(d.is_dir() || std::fs::create_dir_all(&d).is_ok());
    }

    #[test]
    fn bar_clamps() {
        assert_eq!(bar(0.5, 10), "#####");
        assert_eq!(bar(2.0, 4), "####");
        assert_eq!(bar(0.0, 4), "");
    }

    #[test]
    fn evaluation_traces_are_eight() {
        // Construction is slow-ish; just check the registry shape here.
        assert_eq!(aladdin_workloads::evaluation_kernels().len(), 8);
    }
}
