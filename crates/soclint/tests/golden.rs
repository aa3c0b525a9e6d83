//! Golden tests for `soclint --format json`: the JSON surface is a
//! stable machine interface, so these pin exact bytes, not just shape.

use std::process::Command;

fn soclint(args: &[&str]) -> (String, String, i32) {
    let out = Command::new(env!("CARGO_BIN_EXE_soclint"))
        .args(args)
        .output()
        .expect("run soclint");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        String::from_utf8(out.stderr).expect("utf-8 stderr"),
        out.status.code().expect("exit code"),
    )
}

#[test]
fn protocol_json_is_stable() {
    let (stdout, _, code) = soclint(&["--format", "json", "protocol"]);
    assert_eq!(
        stdout,
        concat!(
            r#"{"targets":[{"name":"moesi-lite","report":{"diagnostics":[{"code":"L0300","#,
            r#""severity":"info","locus":null,"message":"exhaustively enumerated 12 states "#,
            r#"over 60 transitions"}],"errors":0,"warnings":0,"infos":1}}],"errors":0}"#,
            "\n"
        )
    );
    assert_eq!(code, 0);
}

#[test]
fn config_json_is_stable() {
    let (stdout, _, code) = soclint(&["--format", "json", "config"]);
    assert_eq!(
        stdout,
        concat!(
            r#"{"targets":[{"name":"default-design-point","report":{"diagnostics":[],"#,
            r#""errors":0,"warnings":0,"infos":0}}],"errors":0}"#,
            "\n"
        )
    );
    assert_eq!(code, 0);
}

#[test]
fn seeded_protocol_bug_is_caught_with_nonzero_exit() {
    for bug in [
        "silent-drop-on-snoop",
        "skip-invalidate-on-dma-write",
        "no-writeback-on-evict",
    ] {
        let (stdout, _, code) = soclint(&["--format", "json", "protocol", "--seeded-bug", bug]);
        assert_eq!(code, 1, "{bug} must make the check fail");
        assert!(
            stdout.contains(r#""name":"moesi-lite+"#) && stdout.contains(r#""severity":"error""#),
            "{bug}: {stdout}"
        );
        // Each seeded bug manifests as a safety or coherence violation.
        assert!(
            ["L0301", "L0302", "L0303", "L0304"]
                .iter()
                .any(|c| stdout.contains(c)),
            "{bug}: {stdout}"
        );
    }
}

/// The full `soclint protocol` report, human and JSON, for the correct
/// protocol and each seeded bug: the state and transition counts and
/// every flagged state are pinned, not just the presence of a code.
#[test]
fn protocol_reports_match_the_goldens() {
    let cases: [(Option<&str>, &str, &str, i32); 4] = [
        (
            None,
            include_str!("golden/protocol.txt"),
            concat!(
                r#"{"targets":[{"name":"moesi-lite","report":{"diagnostics":[{"code":"L0300","#,
                r#""severity":"info","locus":null,"message":"exhaustively enumerated 12 states "#,
                r#"over 60 transitions"}],"errors":0,"warnings":0,"infos":1}}],"errors":0}"#,
                "\n"
            ),
            0,
        ),
        (
            Some("silent-drop-on-snoop"),
            include_str!("golden/protocol-silent-drop-on-snoop.txt"),
            include_str!("golden/protocol-silent-drop-on-snoop.json"),
            1,
        ),
        (
            Some("skip-invalidate-on-dma-write"),
            include_str!("golden/protocol-skip-invalidate-on-dma-write.txt"),
            include_str!("golden/protocol-skip-invalidate-on-dma-write.json"),
            1,
        ),
        (
            Some("no-writeback-on-evict"),
            include_str!("golden/protocol-no-writeback-on-evict.txt"),
            include_str!("golden/protocol-no-writeback-on-evict.json"),
            1,
        ),
    ];
    for (bug, human, json, exit) in cases {
        for (format, golden) in [("human", human), ("json", json)] {
            let mut args = vec!["--format", format, "protocol"];
            args.extend(bug.map(|b| ["--seeded-bug", b]).into_iter().flatten());
            let (stdout, _, code) = soclint(&args);
            assert_eq!(stdout, golden, "{bug:?} {format}");
            assert_eq!(code, exit, "{bug:?} {format}");
        }
    }
}

#[test]
fn sweep_json_accepts_the_whole_paper_space() {
    let (stdout, _, code) = soclint(&["--format", "json", "sweep"]);
    assert_eq!(code, 0, "{stdout}");
    assert!(stdout.contains(r#""name":"fig3-dma-space""#));
    assert!(stdout.contains(r#""name":"fig3-cache-space""#));
    assert!(stdout.ends_with("\"errors\":0}\n"), "{stdout}");
}

/// Write `bytes` to a unique temp file and return its path.
fn temp_atrc(tag: &str, bytes: &[u8]) -> std::path::PathBuf {
    let path =
        std::env::temp_dir().join(format!("soclint-golden-{}-{tag}.atrc", std::process::id()));
    std::fs::write(&path, bytes).expect("write temp atrc");
    path
}

#[test]
fn atrc_trace_lints_clean_with_l0280_info() {
    let trace = aladdin_workloads::by_name("fft-transpose")
        .expect("kernel")
        .run()
        .trace;
    let path = temp_atrc("ok", &aladdin_ir::encode_trace(&trace));
    let (stdout, _, code) = soclint(&["--format", "json", "trace", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 0, "{stdout}");
    assert!(
        stdout.contains(r#""code":"L0280","severity":"info""#),
        "{stdout}"
    );
    assert!(stdout.contains("atrc validated"), "{stdout}");
    assert!(stdout.ends_with("\"errors\":0}\n"), "{stdout}");
}

#[test]
fn truncated_atrc_fails_with_l0280_error() {
    let trace = aladdin_workloads::by_name("fft-transpose")
        .expect("kernel")
        .run()
        .trace;
    let mut bytes = aladdin_ir::encode_trace(&trace);
    bytes.truncate(bytes.len() / 2);
    let path = temp_atrc("truncated", &bytes);
    let (stdout, _, code) = soclint(&["--format", "json", "trace", path.to_str().unwrap()]);
    std::fs::remove_file(&path).ok();
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains(r#""code":"L0280","severity":"error""#),
        "{stdout}"
    );
}

#[test]
fn missing_atrc_file_fails_with_l0280_error() {
    let (stdout, _, code) = soclint(&[
        "--format",
        "json",
        "trace",
        "/nonexistent/never-created.atrc",
    ]);
    assert_eq!(code, 1, "{stdout}");
    assert!(
        stdout.contains(r#""code":"L0280","severity":"error""#),
        "{stdout}"
    );
}

#[test]
fn unknown_arguments_exit_2() {
    let (_, _, code) = soclint(&["frobnicate"]);
    assert_eq!(code, 2);
    let (_, stderr, code) = soclint(&["protocol", "--seeded-bug", "nope"]);
    assert_eq!(code, 2);
    assert!(stderr.contains("unknown seeded bug"), "{stderr}");
}
