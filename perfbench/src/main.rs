//! The repository benchmark: four workloads that drive the simulator's
//! crates through their public APIs, time them from outside, check every
//! simulated result, and print one JSON result line.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload campaign-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` replays the
//! same workload through spans around every layer call and reports the
//! per-layer metrics instead (see `perfbench/README.md`). Everything the
//! run writes lives under `.bench_out/` in the working directory.

mod campaign;
mod check;
mod spans;
mod stream;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics and their units, reported with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("points_per_s", "1/s"),
    ("sim_cycles_per_s", "1/s"),
    ("stream_nodes_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics and their units, reported with `--trace 1`. A layer
/// a workload does not reach reports 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("workloads.trace_gen_ms", "ms"),
    ("workloads.trace_nodes", "count"),
    ("ir.fingerprint_ms", "ms"),
    ("ir.atrc_decode_mb_per_s", "MB/s"),
    ("ir.atrc_generate_s", "s"),
    ("accel.dddg_prepare_ms", "ms"),
    ("accel.schedule_ms_p50", "ms"),
    ("accel.schedule_ms_p99", "ms"),
    ("accel.window_schedule_s", "s"),
    ("accel.events", "count"),
    ("accel.stepped_cycles", "count"),
    ("accel.peak_resident_nodes", "count"),
    ("mem.step_ms", "ms"),
    ("mem.cache_accesses", "count"),
    ("mem.cache_miss_ratio", "ratio"),
    ("mem.tlb_misses", "count"),
    ("mem.dma_bursts", "count"),
    ("mem.bus_bytes", "bytes"),
    ("core.point_ms_p50", "ms"),
    ("core.point_ms_p99", "ms"),
    ("core.multi_point_ms_p50", "ms"),
    ("core.multi_point_ms_p99", "ms"),
    ("core.sim_cycles", "count"),
    ("dse.cache_lookup_us_p50", "us"),
    ("dse.cache_insert_us_p50", "us"),
    ("dse.cache_hit_ratio", "ratio"),
    ("dse.parallel_efficiency", "ratio"),
    ("spec.expand_ms", "ms"),
    ("spec.overhead_ms", "ms"),
    ("bench.trace_overhead_ms", "ms"),
    ("bench.point_samples", "count"),
];

const WORKLOADS: [&str; 4] = [
    "campaign-cold",
    "campaign-warm",
    "stream-5m",
    "soc-contention",
];

/// Command-line arguments.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        while let Some(flag) = argv.next() {
            let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value {value:?} for {flag}");
            match flag.as_str() {
                "--workload" => args.workload.clone_from(&value),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!(
                "--workload must be one of {}",
                WORKLOADS.join(", ")
            ));
        }
        if args.seconds.is_nan() || args.seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(args)
    }
}

/// What a workload reports: points attempted and failed (a failed output
/// check counts as a failed point), named metric values, and the checks
/// that failed.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a failed check that spoils `points` points.
    pub fn fail(&mut self, points: u64, problem: String) {
        self.failed += points;
        self.problems.push(problem);
    }
}

/// A per-run scratch directory under `.bench_out/`, removed on drop.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    fn new() -> std::io::Result<Scratch> {
        let root = Path::new(".bench_out").join(format!("run-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Scratch {
            root,
            next: std::cell::Cell::new(0),
        })
    }

    /// A new empty directory inside the scratch area.
    pub fn fresh(&self, what: &str) -> Result<PathBuf, String> {
        let n = self.next.get();
        self.next.set(n + 1);
        let dir = self.root.join(format!("{what}-{n}"));
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    percentile(v, 50.0)
}

/// The `p`-th percentile of `v`: linear interpolation between closest
/// ranks (0 when empty).
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n => {
            let pos = p / 100.0 * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = pos.ceil() as usize;
            s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
        }
    }
}

/// The process's resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Reset the resident-set high-water mark, so the next [`peak_rss_mb`]
/// reads the peak since now. Where the kernel refuses, the peak stays the
/// process's.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Worker threads the sweeps use.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// SplitMix64: the workload seed's only consumer.
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

fn json_line(out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let v = out.values.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.problems.is_empty() && out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let scratch = match Scratch::new() {
        Ok(s) => s,
        Err(e) => {
            eprintln!("perfbench: cannot create .bench_out: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The result cache is configured here, never from the environment:
    // `ALADDIN_SWEEP_CACHE*` cannot change what is measured.
    aladdin_dse::set_sweep_cache_mode(aladdin_dse::SweepCacheMode::Full);
    aladdin_dse::set_sweep_cache_dir(&scratch.root.join("no-cache"));

    let rec = args.trace.then(spans::Recorder::new);
    let result = match args.workload.as_str() {
        "campaign-cold" => campaign::cold(&args, &scratch, rec.as_ref()),
        "campaign-warm" => campaign::warm(&args, &scratch, rec.as_ref()),
        "soc-contention" => campaign::contention(&args, &scratch, rec.as_ref()),
        _ => stream::run(&args, &scratch, rec.as_ref()),
    };
    let mut out = match result {
        Ok(mut out) => {
            out.failed = out.failed.min(out.attempted);
            out
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if let Some(rec) = &rec {
        let path = Path::new(".bench_out")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = rec.write_jsonl(&path) {
            out.problems
                .push(format!("cannot write {}: {e}", path.display()));
        }
    }
    for p in &out.problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }
    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    for (name, unit) in names {
        let v = out.values.get(name).copied().unwrap_or(0.0);
        eprintln!("{:>28} {v:>16.4} {unit}", name);
    }
    drop(scratch);
    println!("{}", json_line(&out, names));
    ExitCode::SUCCESS
}
