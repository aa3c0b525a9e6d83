//! `sweep --json` output is valid JSON whatever the campaign is called,
//! and the removed `--retries` flag is a usage error.

use std::path::PathBuf;
use std::process::Command;

fn temp_file(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aladdin-sweep-json-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn campaign_names_with_quotes_are_escaped_in_json_output() {
    let campaign = temp_file("quote.toml");
    let journal = temp_file("quote.jsonl");
    std::fs::write(
        &campaign,
        r#"
name = "q\"uote"
kernels = ["aes-aes"]
mems = ["isolated"]

[space]
lanes = [1]
partitions = [1]
"#,
    )
    .unwrap();
    let campaign_arg = campaign.to_str().unwrap();
    for args in [
        vec!["--json", "plan", campaign_arg],
        vec![
            "--json",
            "run",
            campaign_arg,
            "--journal",
            journal.to_str().unwrap(),
        ],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
            .args(&args)
            .output()
            .expect("runs");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{args:?}: {stdout}");
        assert!(
            stdout.contains(r#""campaign":"q\"uote""#),
            "{args:?}: {stdout}"
        );
    }
    let _ = std::fs::remove_file(&campaign);
    let _ = std::fs::remove_file(&journal);
}

#[test]
fn retries_flag_is_a_usage_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["work", "campaign.toml", "--retries", "2"])
        .output()
        .expect("runs");
    assert_eq!(out.status.code(), Some(2));
}
