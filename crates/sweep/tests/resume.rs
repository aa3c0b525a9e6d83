//! Kill-and-continue integration tests for the `sweep` binary: an
//! interrupted campaign resumes to completion with no duplicated journal
//! records, zero recomputed finished points, and results bit-identical to
//! driving the sweep engine directly.

use std::collections::HashSet;
use std::path::PathBuf;
use std::process::Command;

use aladdin_spec::{CampaignSpec, PlannedPoint};

const CAMPAIGN: &str = r#"
name = "resume-test"
kernels = ["aes-aes", "nw-nw", "spmv-crs"]
mems = ["dma:full"]

[space]
lanes = [1, 2]
partitions = [1, 2]
"#;

fn sweep_bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sweep"))
}

fn temp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aladdin-sweep-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

/// Extract `"key":123` from one flat JSON line.
fn field_u64(line: &str, key: &str) -> Option<u64> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[test]
fn killed_campaign_resumes_without_recompute() {
    let campaign = temp_file("resume.toml");
    let journal = temp_file("resume.jsonl");
    std::fs::write(&campaign, CAMPAIGN).unwrap();

    let plan = CampaignSpec::from_toml(CAMPAIGN)
        .expect("campaign parses")
        .expand()
        .expect("campaign expands");
    let total = plan.points.len();
    assert_eq!(total, 12, "3 kernels × 4 dma points");

    // `plan` validates and forecasts without running anything.
    let out = sweep_bin()
        .args(["plan", campaign.to_str().unwrap(), "--json"])
        .output()
        .expect("sweep plan runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(field_u64(&stdout, "points"), Some(12), "{stdout}");

    // First run is "killed" after 5 points (the --limit flag exercises
    // exactly the interrupted-campaign path: a partial journal).
    let out = sweep_bin()
        .args([
            "run",
            campaign.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--limit",
            "5",
            "--json",
        ])
        .output()
        .expect("sweep run runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(field_u64(&stdout, "ran"), Some(5), "{stdout}");
    assert!(stdout.contains("\"complete\":false"), "{stdout}");

    // Resume finishes the campaign, skipping all five finished points.
    let out = sweep_bin()
        .args([
            "resume",
            campaign.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("sweep resume runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(
        field_u64(&stdout, "skipped"),
        Some(5),
        "finished points must not recompute: {stdout}"
    );
    assert_eq!(field_u64(&stdout, "ran"), Some(7), "{stdout}");
    assert!(stdout.contains("\"complete\":true"), "{stdout}");

    // The journal holds the header plus exactly one record per point —
    // no duplicates, no gaps.
    let text = std::fs::read_to_string(&journal).unwrap();
    let mut lines = text.lines();
    let header = lines.next().expect("header line");
    assert_eq!(field_u64(header, "points"), Some(total as u64), "{header}");
    let indices: Vec<u64> = lines
        .map(|l| field_u64(l, "point").expect("every record names its point"))
        .collect();
    assert_eq!(indices.len(), total, "one record per point");
    let unique: HashSet<u64> = indices.iter().copied().collect();
    assert_eq!(unique.len(), total, "no duplicated points: {indices:?}");
    assert_eq!(
        unique,
        (0..total as u64).collect(),
        "every point is recorded"
    );

    // Bit-identical to driving the sweep engine directly on the same
    // expanded points: the journal is a log, not a different simulator.
    let text_lines: Vec<&str> = text.lines().skip(1).collect();
    for (index, planned) in plan.points.iter().enumerate() {
        let PlannedPoint::Single { kernel, point } = planned else {
            panic!("sweep campaign has only single points");
        };
        let line = text_lines
            .iter()
            .find(|l| field_u64(l, "point") == Some(index as u64))
            .expect("record exists");
        let trace = aladdin_workloads::by_name(kernel).unwrap().run().trace;
        let direct = aladdin_dse::run_point_cached(&trace, &point.dp, &point.soc, point.kind);
        assert_eq!(
            field_u64(line, "cycles"),
            Some(direct.total_cycles),
            "point {index} ({kernel}) cycles diverge from the engine: {line}"
        );
    }

    // A second resume is a no-op.
    let out = sweep_bin()
        .args([
            "resume",
            campaign.to_str().unwrap(),
            "--journal",
            journal.to_str().unwrap(),
            "--json",
        ])
        .output()
        .expect("sweep resume runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(field_u64(&stdout, "ran"), Some(0), "{stdout}");

    let _ = std::fs::remove_file(&campaign);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn resume_refuses_an_edited_campaign() {
    // Each case: flags for the first run, the campaign text the resume
    // sees, and flags for the resume. Both edits change the plan digest,
    // so the stale journal must be refused, not silently mixed with
    // different points.
    let edited = CAMPAIGN.replace("[1, 2]", "[1, 4]");
    let cases: [(&str, &[&str], &str, &[&str]); 2] = [
        ("edited", &[], &edited, &[]),
        ("faults", &["--faults", "7"], CAMPAIGN, &[]),
    ];
    for (name, run_flags, resumed, resume_flags) in cases {
        let campaign = temp_file(&format!("{name}.toml"));
        let journal = temp_file(&format!("{name}.jsonl"));
        std::fs::write(&campaign, CAMPAIGN).unwrap();

        let out = sweep_bin()
            .args(run_flags)
            .args([
                "run",
                campaign.to_str().unwrap(),
                "--journal",
                journal.to_str().unwrap(),
                "--limit",
                "1",
            ])
            .output()
            .expect("sweep run runs");
        assert!(
            out.status.success(),
            "{name}: {}",
            String::from_utf8_lossy(&out.stderr)
        );

        std::fs::write(&campaign, resumed).unwrap();
        let out = sweep_bin()
            .args(resume_flags)
            .args([
                "resume",
                campaign.to_str().unwrap(),
                "--journal",
                journal.to_str().unwrap(),
            ])
            .output()
            .expect("sweep resume runs");
        assert_eq!(out.status.code(), Some(1), "{name}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("L0266"), "{name}: {stderr}");

        let _ = std::fs::remove_file(&campaign);
        let _ = std::fs::remove_file(&journal);
    }
}

#[test]
fn usage_errors_exit_2() {
    let out = sweep_bin().args(["frobnicate"]).output().expect("runs");
    assert_eq!(out.status.code(), Some(2));
    let out = sweep_bin()
        .args(["plan", "/nonexistent.toml", "--cache", "sideways"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}
