//! Fault-injection soak: every flow, several seeds, two kernels.
//!
//! For each seed the soak runs the isolated, DMA (full) and cache flows
//! twice under `SimHarness::with_seed` and checks the fault subsystem's
//! contract: the simulation terminates, the same seed reproduces the same
//! result bit-exactly, and injected faults never make a run faster than
//! the clean baseline. CI runs this as a smoke job.
//!
//! ```sh
//! cargo run --release -p aladdin-bench --bin fault_soak -- 4
//! ```
//!
//! The optional argument is the number of seeds (default 4). Exit status
//! is 1 if any run violates the contract.

use aladdin_accel::DatapathConfig;
use aladdin_bench::{run_flow, square_dp};
use aladdin_core::{
    simulate, DmaOptLevel, FlowResult, FlowSpec, MemKind, SimError, SimHarness, SocConfig,
};
use aladdin_ir::Trace;
use aladdin_workloads::by_name;

fn try_run(
    trace: &Trace,
    dp: &DatapathConfig,
    soc: &SocConfig,
    kind: MemKind,
    h: &SimHarness,
) -> Result<FlowResult, SimError> {
    simulate(trace, dp, soc, &FlowSpec::new(kind).with_harness(h))
}

/// One flow under one seed, run twice: report any contract violation.
fn soak_one(
    label: &str,
    seed: u64,
    baseline: &FlowResult,
    a: Result<FlowResult, SimError>,
    b: Result<FlowResult, SimError>,
) -> u32 {
    match (a, b) {
        (Ok(a), Ok(b)) => {
            let mut bad = 0;
            if a != b {
                eprintln!("FAIL {label} seed {seed}: same seed diverged");
                bad += 1;
            }
            if a.total_cycles < baseline.total_cycles {
                eprintln!(
                    "FAIL {label} seed {seed}: faulted run faster than clean ({} < {})",
                    a.total_cycles, baseline.total_cycles
                );
                bad += 1;
            }
            if bad == 0 {
                println!(
                    "ok   {label} seed {seed}: {} cycles (clean {}, +{})",
                    a.total_cycles,
                    baseline.total_cycles,
                    a.total_cycles - baseline.total_cycles
                );
            }
            bad
        }
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("FAIL {label} seed {seed}: bounded plan did not terminate: {e}");
            1
        }
    }
}

fn main() {
    let seeds: u64 = std::env::args()
        .nth(1)
        .map_or(4, |s| s.parse().unwrap_or(4));
    let soc = SocConfig::default();
    let dp = square_dp(2);
    let mut failures = 0u32;
    let mut runs = 0u32;
    for kernel in ["aes-aes", "fft-transpose"] {
        let trace = by_name(kernel).expect("known kernel").run().trace;
        let base_iso = run_flow(&trace, &dp, &soc, MemKind::Isolated);
        let base_dma = run_flow(&trace, &dp, &soc, MemKind::Dma(DmaOptLevel::Full));
        let base_cache = run_flow(&trace, &dp, &soc, MemKind::Cache);
        for seed in 0..seeds {
            let h = SimHarness::with_seed(seed);
            failures += soak_one(
                &format!("{kernel}/isolated"),
                seed,
                &base_iso,
                try_run(&trace, &dp, &soc, MemKind::Isolated, &h),
                try_run(&trace, &dp, &soc, MemKind::Isolated, &h),
            );
            failures += soak_one(
                &format!("{kernel}/dma"),
                seed,
                &base_dma,
                try_run(&trace, &dp, &soc, MemKind::Dma(DmaOptLevel::Full), &h),
                try_run(&trace, &dp, &soc, MemKind::Dma(DmaOptLevel::Full), &h),
            );
            failures += soak_one(
                &format!("{kernel}/cache"),
                seed,
                &base_cache,
                try_run(&trace, &dp, &soc, MemKind::Cache, &h),
                try_run(&trace, &dp, &soc, MemKind::Cache, &h),
            );
            runs += 3;
        }
    }
    println!("fault-soak: {runs} runs, {failures} contract violation(s)");
    std::process::exit(i32::from(failures > 0));
}
