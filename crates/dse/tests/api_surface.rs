//! Public-API surface snapshot for `aladdin-dse`.
//!
//! Every sweep runs one per-point step through one parallel engine. This
//! test pins the crate's `pub use` surface (parsed from `lib.rs`, the
//! crate's single export site) against a golden list, so another `sweep_*`
//! variant must consciously edit the snapshot here to land.

const LIB: &str = include_str!("../src/lib.rs");

/// Every symbol re-exported from `lib.rs`, sorted.
const GOLDEN: &[&str] = &[
    "CachePoint",
    "CodesignReport",
    "DesignSpace",
    "DmaPoint",
    "FORMAT_VERSION",
    "KiviatSummary",
    "Metric",
    "PointOutcome",
    "PointSpec",
    "Preflight",
    "PrunedPoint",
    "RejectedPoint",
    "ScenarioOutcome",
    "SweepCacheMode",
    "SweepPerf",
    "SweepSource",
    "TraceMemo",
    "cache_gate_open",
    "edp_optimal",
    "global_perf",
    "optimal_by",
    "parallel_map",
    "pareto_frontier",
    "point_cached",
    "preflight_cache",
    "preflight_dma",
    "reset_sweep_cache",
    "run_codesign",
    "run_point_cached",
    "set_sweep_cache_dir",
    "set_sweep_cache_mode",
    "sweep",
    "sweep_engine",
    "sweep_perf",
    "sweep_points",
    "sweep_points_streaming",
];

/// Split every top-level `pub use path::{a, b};` statement into symbols.
fn exports(src: &str) -> Vec<String> {
    let mut names = Vec::new();
    for stmt in src.split("\npub use ").skip(1) {
        let body = stmt.split(';').next().unwrap_or(stmt);
        match (body.find('{'), body.rfind('}')) {
            (Some(open), Some(close)) => names.extend(
                body[open + 1..close]
                    .split(',')
                    .map(str::trim)
                    .filter(|n| !n.is_empty())
                    .map(str::to_owned),
            ),
            _ => names.push(body.rsplit("::").next().unwrap_or(body).trim().to_owned()),
        }
    }
    names.sort();
    names
}

#[test]
fn public_surface_matches_golden_snapshot() {
    assert_eq!(
        exports(LIB),
        GOLDEN,
        "export surface drifted — update the golden list deliberately if this is intended"
    );
    assert!(!LIB.contains("#[allow(deprecated)]"));
}
