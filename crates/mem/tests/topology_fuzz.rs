//! Seeded fuzzing of topology strings through `Topology::parse` →
//! `TopologyConfig::check` → `Fabric::try_new`, then a few requests
//! and ticks on every fabric that builds. Inputs are byte-level mutants
//! of valid specs and random specs assembled from kinds and parameters,
//! huge mesh dimensions, radixes and latencies among them. The property:
//! every input yields a value or a typed error, never a panic.
//!
//! Deterministic (fixed [`SmallRng`] seed) and bounded, so it runs in the
//! tier-1 suite.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aladdin_mem::{
    BusConfig, DramConfig, Fabric, MasterId, ProtocolConfig, Topology, TopologyConfig,
    CODE_BAD_TOPOLOGY, CODE_TOPOLOGY_CAPACITY,
};
use aladdin_rng::SmallRng;

const INPUTS: usize = 3000;

/// Valid specs, one or more per kind and alias, as mutation seeds.
const CORPUS: [&str; 11] = [
    "shared-bus",
    "bus",
    "crossbar",
    "xbar:2",
    "crossbar:256",
    "two-level",
    "hierarchical:3",
    "two-level:2:4",
    "mesh:3x3",
    "noc:2x2:1:32",
    "mesh:16x16:2:64",
];

const KINDS: [&str; 12] = [
    "shared-bus",
    "bus",
    "shared",
    "crossbar",
    "xbar",
    "two-level",
    "hierarchical",
    "mesh",
    "noc",
    "",
    "torus",
    "MESH",
];

const PARAMS: [&str; 16] = [
    "0",
    "1",
    "2",
    "7",
    "255",
    "256",
    "257",
    "65535",
    "4294967295",
    "4294967296",
    "99999999999999999999",
    "-1",
    "",
    "x",
    "+3",
    "3.5",
];

/// Characters mutations insert: the grammar's own plus a few strangers.
const ALPHABET: [char; 12] = ['0', '9', ':', 'x', 'X', '-', ' ', 'a', 'é', '\0', '∞', '8'];

fn pick<'a>(rng: &mut SmallRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A spec assembled from a kind and up to four parameters; a mesh's first
/// parameter is usually a `COLSxROWS` pair of (often huge) dimensions.
fn random_spec(rng: &mut SmallRng) -> String {
    let kind = pick(rng, &KINDS);
    let mut parts = vec![kind.to_owned()];
    for i in 0..rng.gen_range(0..5usize) {
        if i == 0 && rng.gen_bool(0.6) {
            parts.push(format!("{}x{}", pick(rng, &PARAMS), pick(rng, &PARAMS)));
        } else {
            parts.push(pick(rng, &PARAMS).to_owned());
        }
    }
    parts.join(":")
}

/// One to three character edits of a corpus spec.
fn mutant(rng: &mut SmallRng) -> String {
    let mut chars: Vec<char> = pick(rng, &CORPUS).chars().collect();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..=chars.len());
        let c = ALPHABET[rng.gen_range(0..ALPHABET.len())];
        match rng.gen_range(0..3u32) {
            0 => chars.insert(at, c),
            1 if at < chars.len() => {
                chars.remove(at);
            }
            _ if at < chars.len() => chars[at] = c,
            _ => chars.push(c),
        }
    }
    chars.into_iter().collect()
}

fn protocol(rng: &mut SmallRng) -> ProtocolConfig {
    let values = [0, 1, 64, u32::MAX];
    ProtocolConfig {
        max_burst_bytes: values[rng.gen_range(0..values.len())],
        max_outstanding: values[rng.gen_range(0..values.len())],
    }
}

/// Parse, check, build and briefly drive `spec`, or describe the untyped
/// failure.
fn run(spec: &str, protocol: ProtocolConfig) -> Result<(), String> {
    let Ok(topology) = Topology::parse(spec) else {
        return Ok(());
    };
    if Topology::parse(&topology.spec_string()) != Ok(topology) {
        return Err(format!("{topology:?} does not round-trip its spec string"));
    }
    let cfg = TopologyConfig { topology, protocol };
    let report = cfg.check();
    if let Some(d) = report
        .diagnostics()
        .iter()
        .find(|d| d.code != CODE_BAD_TOPOLOGY)
    {
        return Err(format!("check reported {} instead of L0310", d.code));
    }
    let mut ic = match Fabric::try_new(BusConfig::default(), DramConfig::default(), cfg) {
        Ok(ic) if report.is_clean() => ic,
        Ok(_) => return Err("built a fabric that check rejects".to_owned()),
        Err(d) if !report.is_clean() && d.code == CODE_BAD_TOPOLOGY => return Ok(()),
        Err(d) => return Err(format!("build failed with {}: {}", d.code, d.message)),
    };
    for (m, addr) in [(0u8, 0u64), (1, 4096), (255, 1 << 40)] {
        if let Err(d) = ic.try_request(MasterId(m), addr, 64, m % 2 == 1) {
            if d.code != CODE_TOPOLOGY_CAPACITY {
                return Err(format!("request failed with {}: {}", d.code, d.message));
            }
        }
    }
    for cycle in 0..64 {
        ic.tick(cycle);
    }
    ic.drain_completions();
    Ok(())
}

#[test]
fn topology_strings_never_panic() {
    for spec in CORPUS {
        assert_eq!(run(spec, ProtocolConfig::default()), Ok(()), "{spec}");
    }
    let mut rng = SmallRng::seed_from_u64(0x70B0_F022);
    let mut failures = Vec::new();
    let (mut built, mut refused) = (0, 0);
    for i in 0..INPUTS {
        let spec = if i % 2 == 0 {
            mutant(&mut rng)
        } else {
            random_spec(&mut rng)
        };
        let protocol = protocol(&mut rng);
        match catch_unwind(AssertUnwindSafe(|| run(&spec, protocol))) {
            Ok(Ok(())) => match Topology::parse(&spec) {
                Ok(t)
                    if (TopologyConfig {
                        topology: t,
                        protocol,
                    })
                    .check()
                    .is_clean() =>
                {
                    built += 1;
                }
                _ => refused += 1,
            },
            Ok(Err(msg)) => failures.push(format!("{spec:?}: {msg}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_default();
                failures.push(format!("{spec:?}: panic: {msg}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // The generators must reach both sides of the grammar.
    assert!(
        built > 100 && refused > 100,
        "built {built}, refused {refused}"
    );
}
