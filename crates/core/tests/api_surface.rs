//! Public-API surface snapshot for `aladdin-core`.
//!
//! The FlowSpec unification promises *exactly one* simulation entry-point
//! family. This test pins the crate's `pub use` surface (parsed from
//! `lib.rs`, the crate's single export site) against a golden list, so
//! any future export — in particular a new `run_*` sibling — must
//! consciously edit the snapshot here to land.

const LIB: &str = include_str!("../src/lib.rs");

/// Every symbol re-exported from `lib.rs`, sorted.
const GOLDEN: &[&str] = &[
    "AcceleratorJob",
    "AcceleratorTimeline",
    "CODE_BAD_TOPOLOGY",
    "CODE_TOPOLOGY_CAPACITY",
    "CompletionSignal",
    "DeadlockSnapshot",
    "DmaOptLevel",
    "EnergyReport",
    "FaultPlan",
    "FaultSpec",
    "FlowResult",
    "FlowSpec",
    "MasterId",
    "MemKind",
    "MultiSocResult",
    "NackSpec",
    "PhaseBreakdown",
    "ProtocolConfig",
    "SimError",
    "SimHarness",
    "SocConfig",
    "SourceFlowRun",
    "TimeDecomposition",
    "Topology",
    "TopologyConfig",
    "TraceSource",
    "TraceSourceKind",
    "TrafficConfig",
    "ValidationRow",
    "Watchdog",
    "decompose_cache_time",
    "simulate",
    "simulate_multi",
    "simulate_prepared",
    "simulate_source",
    "simulate_source_prepared",
    "validate_kernel",
    "validate_multi_jobs",
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
    assert!(
        !LIB.contains("#[allow(deprecated)]"),
        "the compatibility layer is gone; nothing may re-export deprecated items"
    );
}

/// The one-entry-point guarantee, stated directly: no export looks like
/// a second simulation entry-point family.
#[test]
fn exactly_one_simulation_entry_point_family() {
    let entry_points: Vec<String> = exports(LIB)
        .into_iter()
        .filter(|n| n.starts_with("run_") || n.starts_with("try_run_") || n.contains("simulate"))
        .collect();
    assert_eq!(
        entry_points,
        [
            "simulate",
            "simulate_multi",
            "simulate_prepared",
            "simulate_source",
            "simulate_source_prepared",
        ],
        "an entry point outside the simulate family appeared"
    );
}
