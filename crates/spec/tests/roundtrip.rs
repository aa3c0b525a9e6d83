//! Serde round-trip property tests: randomly generated campaign specs —
//! exercising every spec type ([`SpaceSpec`], [`DatapathSpec`],
//! [`SocSpec`], [`FaultsSpec`], [`JobSpec`]) — must survive
//! `to_toml` → `from_toml` exactly, and the canonical serialization must
//! be a fixed point. The canonical bytes themselves are pinned by
//! goldens, because every journal header persists their digest.

use aladdin_core::{DmaOptLevel, MemKind, Topology};
use aladdin_rng::SmallRng;
use aladdin_spec::campaign::fnv1a64;
use aladdin_spec::{
    CampaignSpec, DatapathSpec, FaultsSpec, JobSpec, SocSpec, SpacePreset, SpaceSpec,
};
use aladdin_workloads::all_kernels;

fn maybe<T>(rng: &mut SmallRng, f: impl FnOnce(&mut SmallRng) -> T) -> Option<T> {
    if rng.gen_bool(0.5) {
        let v = f(rng);
        Some(v)
    } else {
        None
    }
}

fn small(rng: &mut SmallRng, max: u64) -> u64 {
    1 + rng.next_u64() % max
}

fn u32s(rng: &mut SmallRng) -> Vec<u32> {
    (0..1 + rng.next_u64() % 4)
        .map(|_| small(rng, 16) as u32)
        .collect()
}

fn random_topology(rng: &mut SmallRng) -> Topology {
    match rng.next_u64() % 4 {
        0 => Topology::SharedBus,
        1 => Topology::Crossbar {
            radix: small(rng, 8) as u32,
        },
        2 => Topology::TwoLevelBus {
            clusters: small(rng, 4) as u32,
            bridge_cycles: small(rng, 8) as u32,
        },
        _ => Topology::MeshNoc {
            cols: 1 + small(rng, 4) as u32,
            rows: 1 + small(rng, 4) as u32,
            hop_cycles: small(rng, 4) as u32,
            link_bits: 8 * small(rng, 8) as u32,
        },
    }
}

fn random_space(rng: &mut SmallRng) -> SpaceSpec {
    let preset = match rng.next_u64() % 3 {
        0 => SpacePreset::Quick,
        1 => SpacePreset::Standard,
        _ => SpacePreset::Paper,
    };
    SpaceSpec {
        preset,
        lanes: maybe(rng, u32s),
        partitions: maybe(rng, u32s),
        cache_sizes: maybe(rng, |rng| (0..2).map(|_| small(rng, 1 << 16)).collect()),
        cache_lines: maybe(rng, u32s),
        cache_ports: maybe(rng, u32s),
        cache_assocs: maybe(rng, u32s),
        topologies: maybe(rng, |rng| {
            (0..1 + rng.next_u64() % 3)
                .map(|_| random_topology(rng))
                .collect()
        }),
    }
}

fn random_datapath(rng: &mut SmallRng) -> DatapathSpec {
    DatapathSpec {
        lanes: maybe(rng, |rng| small(rng, 16) as u32),
        partition: maybe(rng, |rng| small(rng, 16) as u32),
        ports_per_bank: maybe(rng, |rng| small(rng, 4) as u32),
        sync: maybe(rng, |rng| {
            if rng.gen_bool(0.5) {
                aladdin_accel::LaneSync::Barrier
            } else {
                aladdin_accel::LaneSync::Free
            }
        }),
    }
}

fn random_soc(rng: &mut SmallRng) -> SocSpec {
    SocSpec {
        clock_mhz: maybe(rng, |rng| (small(rng, 1000) as f64) / 2.0),
        bus_width_bits: maybe(rng, |rng| 8 * small(rng, 16) as u32),
        bus_infinite_bandwidth: maybe(rng, |rng| rng.gen_bool(0.5)),
        cache_size_bytes: maybe(rng, |rng| small(rng, 1 << 18)),
        cache_line_bytes: maybe(rng, |rng| small(rng, 128) as u32),
        cache_assoc: maybe(rng, |rng| small(rng, 8) as u32),
        cache_ports: maybe(rng, |rng| small(rng, 8) as u32),
        cache_mshrs: maybe(rng, |rng| small(rng, 32) as usize),
        cache_hit_latency: maybe(rng, |rng| small(rng, 4)),
        tlb_entries: maybe(rng, |rng| small(rng, 64) as usize),
        tlb_page_bytes: maybe(rng, |rng| 1 << (8 + rng.next_u64() % 8)),
        tlb_miss_cycles: maybe(rng, |rng| small(rng, 100)),
        dram_banks: maybe(rng, |rng| small(rng, 16) as usize),
        dram_row_bytes: maybe(rng, |rng| 1 << (8 + rng.next_u64() % 6)),
        dma_setup_cycles: maybe(rng, |rng| small(rng, 100)),
        dma_chunk_bytes: maybe(rng, |rng| small(rng, 1 << 14)),
        dma_burst_bytes: maybe(rng, |rng| small(rng, 256) as u32),
        ready_bits_granule: maybe(rng, |rng| 1 << (rng.next_u64() % 13)),
        invoke_cycles: maybe(rng, |rng| small(rng, 100)),
        traffic_period: maybe(rng, |rng| small(rng, 1000)),
        traffic_bytes: maybe(rng, |rng| small(rng, 256) as u32),
        topology: maybe(rng, random_topology),
        topology_max_burst_bytes: maybe(rng, |rng| 64 * small(rng, 8) as u32),
        topology_max_outstanding: maybe(rng, |rng| small(rng, 8) as u32),
    }
}

fn random_faults(rng: &mut SmallRng) -> FaultsSpec {
    FaultsSpec {
        seed: maybe(rng, |rng| rng.next_u64() % (1 << 32)),
        max_cycles: maybe(rng, |rng| small(rng, 1 << 24)),
        no_progress_cycles: maybe(rng, |rng| small(rng, 1 << 24)),
    }
}

fn random_mem(rng: &mut SmallRng) -> MemKind {
    match rng.next_u64() % 5 {
        0 => MemKind::Isolated,
        1 => MemKind::Cache,
        2 => MemKind::Dma(DmaOptLevel::Baseline),
        3 => MemKind::Dma(DmaOptLevel::Pipelined),
        _ => MemKind::Dma(DmaOptLevel::Full),
    }
}

fn random_spec(rng: &mut SmallRng) -> CampaignSpec {
    let kernels = all_kernels();
    let kernel_name = |rng: &mut SmallRng| {
        kernels[rng.next_u64() as usize % kernels.len()]
            .name()
            .to_owned()
    };
    let mut spec = CampaignSpec {
        name: format!("prop-{}", rng.next_u64() % 1000),
        space: random_space(rng),
        datapath: random_datapath(rng),
        soc: random_soc(rng),
        faults: random_faults(rng),
        ..CampaignSpec::default()
    };
    if rng.gen_bool(0.5) {
        // Sweep campaign.
        for _ in 0..1 + rng.next_u64() % 3 {
            spec.kernels.push(kernel_name(rng));
        }
        for _ in 0..1 + rng.next_u64() % 3 {
            spec.mems.push(random_mem(rng));
        }
    } else {
        // Job-set campaign.
        for i in 0..1 + rng.next_u64() % 3 {
            let mut job = JobSpec::new(kernel_name(rng), random_mem(rng));
            job.launch = rng.next_u64() % 10_000;
            job.master = maybe(rng, |_rng| (i % 4) as u8);
            job.lanes = maybe(rng, |rng| small(rng, 16) as u32);
            job.partition = maybe(rng, |rng| small(rng, 16) as u32);
            spec.jobs.push(job);
        }
        if rng.gen_bool(0.5) {
            spec.stagger = (0..1 + rng.next_u64() % 3)
                .map(|_| rng.next_u64() % 5000)
                .collect();
        }
        if rng.gen_bool(0.5) {
            let jobs = spec.jobs.len() as u64;
            spec.accel_counts = (0..1 + rng.next_u64() % 3)
                .map(|_| 1 + rng.next_u64() % jobs)
                .collect();
        }
        if rng.gen_bool(0.5) {
            spec.bus_widths = (0..1 + rng.next_u64() % 3)
                .map(|_| 8 * (1 + small(rng, 16)) as u32)
                .collect();
        }
    }
    spec
}

#[test]
fn random_specs_round_trip_exactly() {
    let mut rng = SmallRng::seed_from_u64(0xA1ADD1);
    for case in 0..200 {
        let spec = random_spec(&mut rng);
        let text = spec.to_toml();
        let parsed = CampaignSpec::from_toml(&text).unwrap_or_else(|r| {
            panic!(
                "case {case}: canonical form rejected:\n{text}\n{}",
                r.to_human()
            )
        });
        assert_eq!(parsed, spec, "case {case}: round trip diverged:\n{text}");
        assert_eq!(
            parsed.to_toml(),
            text,
            "case {case}: serialization is not a fixed point"
        );
    }
}

#[test]
fn defaults_serialize_minimally() {
    // A spec holding nothing but a name and a sweep serializes without
    // any of the optional sections.
    let spec = CampaignSpec {
        name: "minimal".to_owned(),
        kernels: vec!["aes-aes".to_owned()],
        mems: vec![MemKind::Cache],
        ..CampaignSpec::default()
    };
    let text = spec.to_toml();
    for section in ["[space]", "[datapath]", "[soc]", "[faults]", "[[jobs]]"] {
        assert!(!text.contains(section), "{text}");
    }
    assert_eq!(CampaignSpec::from_toml(&text).unwrap(), spec);
}

#[test]
fn values_past_the_largest_toml_integer_fail_expansion() {
    // TOML integers are i64, so an unsigned value above i64::MAX has no
    // canonical form: expansion names the key instead of digesting a
    // document `from_toml` would reject.
    let sweep = CampaignSpec {
        name: "overflow".to_owned(),
        kernels: vec!["aes-aes".to_owned()],
        mems: vec![MemKind::Isolated],
        ..CampaignSpec::default()
    };
    let mut jobs = CampaignSpec {
        kernels: Vec::new(),
        jobs: vec![JobSpec::new("aes-aes", MemKind::Isolated)],
        ..sweep.clone()
    };
    jobs.jobs[0].launch = 1 << 63;
    jobs.stagger = vec![0, u64::MAX];
    let mut seeded = sweep.clone();
    seeded.faults.seed = Some(u64::MAX);
    for (spec, keys) in [
        (&seeded, &["faults.seed"][..]),
        (&jobs, &["stagger", "jobs[0].launch"][..]),
    ] {
        let report = spec.expand().expect_err("an unrepresentable value");
        let errors: Vec<_> = report
            .diagnostics()
            .iter()
            .filter(|d| d.code == "L0261")
            .collect();
        assert_eq!(errors.len(), keys.len(), "{}", report.to_human());
        for (d, key) in errors.iter().zip(keys) {
            assert!(d.message.contains(&format!("`{key}`")), "{}", d.message);
        }
    }
    // The largest TOML integer itself still round-trips and expands.
    seeded.faults.seed = Some(i64::MAX as u64);
    let plan = seeded.expand().expect("i64::MAX is representable");
    assert_eq!(CampaignSpec::from_toml(&seeded.to_toml()).unwrap(), seeded);
    assert_eq!(plan.digest, fnv1a64(seeded.to_toml().as_bytes()));
}

#[test]
fn hand_written_and_canonical_forms_agree() {
    // A hand-written file with comments, underscores, and multi-line
    // arrays parses to the same spec as its canonical serialization.
    let doc = r#"
# hand-written campaign
name = "handwritten"
kernels = [
    "aes-aes",
    "fft-transpose",   # trailing comment
]
mems = ["dma:pipelined", "cache"]

[space]
preset = "standard"
cache_sizes = [2_048, 65_536]

[soc.cache]
size_bytes = 16_384

[faults]
seed = 1_000_000
"#;
    let spec = CampaignSpec::from_toml(doc).expect("parses");
    let again = CampaignSpec::from_toml(&spec.to_toml()).expect("canonical parses");
    assert_eq!(spec, again);
}

/// Golden lines for [`canonical_bytes_match_the_goldens`]: one
/// `<case> len=<bytes> fnv=<fnv1a64 of to_toml>` line per example
/// campaign, then per seeded random spec.
const TO_TOML_GOLDEN: &str = include_str!("golden/to_toml.txt");

/// How many seeded random specs the goldens pin.
const GOLDEN_SPECS: usize = 300;

fn golden_line(case: &str, text: &str) -> String {
    format!(
        "{case} len={} fnv={:016x}",
        text.len(),
        fnv1a64(text.as_bytes())
    )
}

#[test]
fn canonical_bytes_match_the_goldens() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let mut examples: Vec<_> = std::fs::read_dir(&dir)
        .expect("examples/campaigns exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    examples.sort();
    // (golden line, canonical text) per case.
    let mut actual = Vec::new();
    for path in &examples {
        let name = path.file_name().expect("a file").to_string_lossy();
        let source = std::fs::read_to_string(path).expect("readable example");
        let spec = CampaignSpec::from_toml(&source).expect("example parses");
        let text = spec.to_toml();
        let plan = spec.expand().expect("example expands");
        assert_eq!(
            plan.digest,
            fnv1a64(text.as_bytes()),
            "example {name}: the plan digest is the canonical text's digest"
        );
        actual.push((golden_line(&format!("example {name}"), &text), text));
    }
    let mut rng = SmallRng::seed_from_u64(0xA1ADD1);
    for case in 0..GOLDEN_SPECS {
        let text = random_spec(&mut rng).to_toml();
        actual.push((golden_line(&format!("random {case}"), &text), text));
    }
    let golden: Vec<&str> = TO_TOML_GOLDEN.lines().collect();
    for (i, (want, (got, text))) in golden.iter().zip(&actual).enumerate() {
        assert_eq!(
            *want, got,
            "golden case {i}: canonical serialization changed:\n{text}"
        );
    }
    assert_eq!(golden.len(), actual.len(), "golden case count");
}
