//! Seeded mutation fuzzing of the campaign layer's two text inputs: the
//! campaign TOML (`CampaignSpec::from_toml` + `expand`) and the JSONL
//! journal (`scan_journal`, which classifies every line). The property:
//! every input yields a value or a typed diagnostic, never a panic, and a
//! journal scan never reports a finished point outside the plan.
//!
//! Deterministic (fixed [`SmallRng`] seeds) and bounded, so it runs in the
//! tier-1 suite.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use aladdin_ir::Report;
use aladdin_rng::SmallRng;
use aladdin_spec::{run_campaign, scan_journal, CampaignPlan, CampaignSpec, RunOptions};

const TOML_MUTANTS: usize = 1500;
const JOURNAL_MUTANTS: usize = 1500;

/// Fragments spliced into mutants: structure, keys and numbers the
/// parsers branch on, including out-of-range point indices.
const TOKENS: [&str; 24] = [
    "\n",
    "[",
    "]",
    "{",
    "}",
    "\"",
    ",",
    "=",
    ":",
    "#",
    "[[jobs]]\n",
    "[space]\n",
    "lanes = [",
    "-1",
    "0",
    "4",
    "54",
    "4294967296",
    "18446744073709551615",
    "99999999999999999999999",
    "1e309",
    "\"point\":",
    "\"status\":\"ok\"",
    "\"event\":\"reclaim\"",
];

/// Numbers substituted for a digit run.
const NUMBERS: [&str; 9] = [
    "0",
    "1",
    "3",
    "4",
    "5",
    "54",
    "65536",
    "18446744073709551615",
    "18446744073709551616",
];

/// One to four edits: bit flips, byte overwrites, token insertions,
/// deletions, line duplications and digit-run substitutions.
fn mutate(rng: &mut SmallRng, clean: &str) -> String {
    let mut bytes = clean.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.gen_range(0..bytes.len());
        match rng.gen_range(0..6u32) {
            0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes[at] = rng.gen(),
            2 => {
                let token = TOKENS[rng.gen_range(0..TOKENS.len())];
                bytes.splice(at..at, token.bytes());
            }
            3 => {
                let end = (at + rng.gen_range(1..9usize)).min(bytes.len());
                bytes.drain(at..end);
            }
            4 => {
                let start = bytes[..at]
                    .iter()
                    .rposition(|&b| b == b'\n')
                    .map_or(0, |i| i + 1);
                let end = bytes[at..]
                    .iter()
                    .position(|&b| b == b'\n')
                    .map_or(bytes.len(), |i| at + i + 1);
                let line = bytes[start..end].to_vec();
                bytes.splice(end..end, line);
            }
            _ => {
                let Some(start) = (at..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) else {
                    continue;
                };
                let end = (start..bytes.len())
                    .find(|&i| !bytes[i].is_ascii_digit())
                    .unwrap_or(bytes.len());
                let number = NUMBERS[rng.gen_range(0..NUMBERS.len())];
                bytes.splice(start..end, number.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Run `f`, turning a panic into an error message.
fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
            .unwrap_or_default()
    })
}

/// A rejection must carry at least one error with a stable code.
fn typed(report: &Report) -> Result<(), String> {
    match report.first_error() {
        Some(d) if d.code.starts_with('L') => Ok(()),
        _ => Err(format!("untyped rejection: {}", report.to_human())),
    }
}

fn example_campaigns() -> Vec<(PathBuf, String)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/campaigns");
    let mut files: Vec<(PathBuf, String)> = std::fs::read_dir(&dir)
        .expect("examples/campaigns exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable example");
            (p, text)
        })
        .collect();
    files.sort();
    files
}

/// Parse and expand one campaign text. `Ok(true)` if it planned.
fn plan_toml(text: &str) -> Result<bool, String> {
    match CampaignSpec::from_toml(text).and_then(|spec| spec.expand()) {
        Ok(plan) => {
            if plan.points.is_empty() {
                return Err("a plan expanded with no points".to_owned());
            }
            Ok(true)
        }
        Err(report) => typed(&report).map(|()| false),
    }
}

#[test]
fn mutated_campaign_toml_never_panics() {
    let examples = example_campaigns();
    assert!(examples.len() >= 3, "expected the bundled campaigns");
    let mut rng = SmallRng::seed_from_u64(0x70_F022);
    let (mut failures, mut planned, mut rejected) = (Vec::new(), 0, 0);
    for (path, clean) in &examples {
        assert_eq!(plan_toml(clean), Ok(true), "{} plans", path.display());
    }
    for i in 0..TOML_MUTANTS {
        let (path, clean) = &examples[i % examples.len()];
        let text = mutate(&mut rng, clean);
        match guarded(|| plan_toml(&text)) {
            Ok(Ok(true)) => planned += 1,
            Ok(Ok(false)) => rejected += 1,
            Ok(Err(msg)) => failures.push(format!("{} mutant {i}: {msg}", path.display())),
            Err(panic) => failures.push(format!("{} mutant {i}: panic: {panic}", path.display())),
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        planned > 0 && rejected > 0,
        "planned {planned}, rejected {rejected}"
    );
}

/// Scan one journal text for `plan`. `Ok(true)` if the scan succeeded.
fn scan_text(plan: &CampaignPlan, path: &Path, text: &str) -> Result<bool, String> {
    std::fs::write(path, text).map_err(|e| e.to_string())?;
    match scan_journal(path, plan) {
        Ok(scan) => {
            let body = text.lines().count().saturating_sub(1);
            if let Some(p) = scan.finished.iter().find(|&&p| p >= plan.points.len()) {
                return Err(format!("finished point {p} is outside the plan"));
            }
            if scan.finished.len() + scan.quarantined.len() > body {
                return Err("more classified records than body lines".to_owned());
            }
            if let Some((n, _)) = scan
                .quarantined
                .iter()
                .find(|(n, _)| *n < 2 || *n > body + 1)
            {
                return Err(format!("quarantined line {n} is not a body line"));
            }
            Ok(true)
        }
        Err(report) => typed(&report).map(|()| false),
    }
}

#[test]
fn mutated_journals_never_panic_or_overcount() {
    let plan = CampaignSpec::from_toml(
        r#"
name = "journal-fuzz"
kernels = ["aes-aes"]
mems = ["isolated"]

[space]
lanes = [1, 2]
partitions = [1, 2]
"#,
    )
    .and_then(|spec| spec.expand())
    .expect("plans");
    let dir = std::env::temp_dir().join(format!("aladdin-journal-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let journal = dir.join("clean.jsonl");
    run_campaign(&plan, &journal, &RunOptions::default()).expect("runs");
    let clean = std::fs::read_to_string(&journal).expect("journal written");
    let (header, body) = clean.split_once('\n').expect("header line");

    let mutant = dir.join("mutant.jsonl");
    assert_eq!(scan_text(&plan, &mutant, &clean), Ok(true));
    let mut rng = SmallRng::seed_from_u64(0x10_F022);
    let (mut failures, mut scanned, mut refused) = (Vec::new(), 0, 0);
    for i in 0..JOURNAL_MUTANTS {
        // Even mutants edit one record line under an intact header; odd
        // ones edit anywhere in the file, header included.
        let text = if i % 2 == 0 {
            let mut lines: Vec<&str> = body.lines().collect();
            let at = rng.gen_range(0..lines.len());
            let edited = mutate(&mut rng, lines[at]);
            lines[at] = &edited;
            format!("{header}\n{}\n", lines.join("\n"))
        } else {
            mutate(&mut rng, &clean)
        };
        match guarded(|| scan_text(&plan, &mutant, &text)) {
            Ok(Ok(true)) => scanned += 1,
            Ok(Ok(false)) => refused += 1,
            Ok(Err(msg)) => failures.push(format!("mutant {i}: {msg}\n{text}")),
            Err(panic) => failures.push(format!("mutant {i}: panic: {panic}\n{text}")),
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    assert!(
        scanned > 0 && refused > 0,
        "scanned {scanned}, refused {refused}"
    );
}
