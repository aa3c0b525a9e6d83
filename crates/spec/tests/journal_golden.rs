//! Byte-level goldens for campaign journals: a tiny mixed campaign —
//! isolated, `dma:full` and cache points, one statically pruned point, an
//! `.atrc` file deleted after planning, and a two-job multi-accelerator
//! point — must journal exactly these body lines, sorted by point.
//!
//! The bytes are what downstream tools parse and digest, so any change to
//! the record format, float rendering or field order shows up here.

use std::path::{Path, PathBuf};
use std::sync::Mutex;

use aladdin_core::{MemKind, SocConfig};
use aladdin_spec::{
    coordinate, run_campaign, run_worker, CampaignPlan, CampaignSpec, PlannedPoint, RunOptions,
    WorkerConfig,
};

/// The journal body of [`mixed_plan`] run with pruning, sorted by point.
/// `<atrc>` stands for the deleted trace file's path.
const GOLDEN: [&str; 6] = [
    r#"{"point":0,"kernel":"aes-aes","mem":"cache","lanes":8,"partition":8,"cache_bytes":1024,"cache_ports":2,"cycles":833,"energy_j":2.5549461716393478e-8,"edp":2.1282701609755768e-13,"status":"ok"}"#,
    r#"{"point":1,"kernel":"aes-aes","mem":"cache","lanes":1,"partition":1,"cache_bytes":1048576,"cache_ports":1,"lo":2540,"power_floor_mw":4.652315525646127e1,"by_cycles":833,"by_power_mw":3.0671622708755675e0,"status":"pruned"}"#,
    r#"{"point":2,"kernel":"<atrc>","mem":"isolated","lanes":2,"partition":2,"status":"error","error":"error [L0280] -: cannot read <atrc>: No such file or directory (os error 2)"}"#,
    r#"{"point":3,"kernel":"fft-transpose","mem":"isolated","lanes":2,"partition":2,"cycles":2112,"energy_j":6.843263999999999e-8,"edp":1.4452973568e-12,"status":"ok"}"#,
    r#"{"point":4,"kernel":"aes-aes","mem":"dma:full","lanes":2,"partition":2,"cycles":1826,"energy_j":1.5442018088314824e-8,"edp":2.819712502926287e-13,"status":"ok"}"#,
    r#"{"point":5,"stagger":0,"count":2,"topology":"shared-bus","bus_width":32,"end":3294,"latencies":[3294,2336],"status":"ok"}"#,
];

/// Tests here run one at a time: the pruned point is pruned only when the
/// cached witness lands before its bounds check, so they never compete
/// with each other for cores.
static SERIAL: Mutex<()> = Mutex::new(());

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("aladdin-golden-{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn expand(toml: &str) -> CampaignPlan {
    CampaignSpec::from_toml(toml)
        .expect("parses")
        .expand()
        .expect("expands")
}

/// The witness point: a fast, small-cache aes-aes design whose result
/// statically dominates [`slow_cache`].
fn fast_cache(base: &PlannedPoint) -> PlannedPoint {
    let PlannedPoint::Single { point, .. } = base else {
        unreachable!("sweep plans have single points")
    };
    let mut point = *point;
    point.kind = MemKind::Cache;
    point.dp.lanes = 8;
    point.dp.partition = 8;
    point.soc.cache.size_bytes = 1024;
    PlannedPoint::Single {
        kernel: "aes-aes".to_owned(),
        point,
    }
}

/// One lane behind a 1 MiB single-port cache: its cycle lower bound and
/// power floor both exceed the fast point's finished result.
fn slow_cache(fast: &PlannedPoint) -> PlannedPoint {
    let PlannedPoint::Single { kernel, point } = fast else {
        unreachable!("built as a single point")
    };
    let mut point = *point;
    point.dp.lanes = 1;
    point.dp.partition = 1;
    point.soc.cache.size_bytes = 1 << 20;
    point.soc.cache.ports = 1;
    point.soc.cache.hit_latency = 4;
    PlannedPoint::Single {
        kernel: kernel.clone(),
        point,
    }
}

/// The mixed campaign, with its `.atrc` entry already written to `atrc`.
///
/// Point order keeps every kernel group but the pruning pair to one
/// point, so no other pruning decision depends on completion order:
/// 0 fast cache (the witness), 1 slow cache (pruned), 2 the `.atrc`
/// entry, 3 isolated, 4 `dma:full`, 5 the two-job co-run.
fn mixed_plan(atrc: &Path) -> CampaignPlan {
    let mut plan = expand(&format!(
        r#"
name = "journal-golden"
kernels = ["aes-aes", "{}", "fft-transpose"]
mems = ["isolated", "dma:full"]

[space]
lanes = [2]
partitions = [2]
"#,
        atrc.display()
    ));
    let jobs = expand(
        r#"
name = "journal-golden-jobs"

[[jobs]]
kernel = "aes-aes"
mem = "dma:full"

[[jobs]]
kernel = "kmp"
mem = "isolated"
"#,
    );
    let pick = |kernel: &str, kind: MemKind| {
        plan.points
            .iter()
            .find(|p| matches!(p, PlannedPoint::Single { kernel: k, point } if k.as_str() == kernel && point.kind == kind))
            .cloned()
            .expect("planned")
    };
    let atrc_name = atrc.display().to_string();
    let fast = fast_cache(&pick("aes-aes", MemKind::Isolated));
    let points = vec![
        fast.clone(),
        slow_cache(&fast),
        pick(&atrc_name, MemKind::Isolated),
        pick("fft-transpose", MemKind::Isolated),
        pick("aes-aes", MemKind::Dma(aladdin_core::DmaOptLevel::Full)),
        PlannedPoint::Multi {
            stagger: 0,
            count: 2,
            soc: SocConfig::default(),
        },
    ];
    plan.spec.jobs = jobs.spec.jobs;
    plan.points = points;
    plan
}

/// Write an `.atrc` of aes-aes to `path` (so planning validates it).
fn write_atrc(path: &Path) {
    let trace = aladdin_workloads::by_name("aes-aes")
        .expect("kernel")
        .run()
        .trace;
    std::fs::write(path, aladdin_ir::encode_trace(&trace)).expect("write atrc");
}

/// Warm the in-process result cache with the witness point, so the
/// pruned point's bounds check (which first builds its own DDDG) always
/// finds the witness's finished result.
fn warm_witness(plan: &CampaignPlan) {
    let PlannedPoint::Single { kernel, point } = &plan.points[0] else {
        unreachable!("point 0 is the witness")
    };
    let trace = aladdin_workloads::by_name(kernel)
        .expect("kernel")
        .run()
        .trace;
    let _ = aladdin_dse::run_point_cached(&trace, &point.dp, &point.soc, point.kind);
}

/// A journal's body lines, with the `.atrc` path masked, sorted by point.
fn sorted_body(text: &str, atrc: &Path) -> Vec<String> {
    let atrc = atrc.display().to_string();
    let mut body: Vec<(usize, String)> = text
        .lines()
        .skip(1)
        .map(|l| {
            let point = l
                .split("\"point\":")
                .nth(1)
                .and_then(|r| r.split(&[',', '}'][..]).next())
                .and_then(|n| n.parse().ok())
                .expect("record has a point index");
            (point, l.replace(&atrc, "<atrc>"))
        })
        .collect();
    body.sort();
    body.into_iter().map(|(_, l)| l).collect()
}

#[test]
fn mixed_campaign_journal_matches_the_golden_bytes() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let atrc = temp_path("mixed.atrc");
    write_atrc(&atrc);
    let plan = mixed_plan(&atrc);
    std::fs::remove_file(&atrc).expect("delete the trace after planning");
    warm_witness(&plan);

    let journal = temp_path("mixed.jsonl");
    let opts = RunOptions {
        prune: true,
        ..RunOptions::default()
    };
    let summary = run_campaign(&plan, &journal, &opts).expect("runs");
    assert!(summary.complete());
    assert_eq!(summary.pruned, 1);
    assert_eq!(summary.failed, 1);

    let text = std::fs::read_to_string(&journal).expect("journal");
    let body = sorted_body(&text, &atrc);
    assert_eq!(body, GOLDEN);
    let _ = std::fs::remove_file(&journal);
}

/// One `sweep work` worker with pruning, merged by `coordinate`, journals
/// the same body as the single-process run: one executor wrote both.
#[test]
fn one_pruning_worker_merges_to_the_golden_bytes() {
    let _serial = SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    if std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) < 2 {
        // A worker's batch is as wide as the host's parallelism; on one
        // hardware thread the witness and the pruned point never share a
        // batch, so nothing can be pruned against the witness.
        return;
    }
    let atrc = temp_path("worker.atrc");
    write_atrc(&atrc);
    let plan = mixed_plan(&atrc);
    std::fs::remove_file(&atrc).expect("delete the trace after planning");
    warm_witness(&plan);

    let dir = temp_path("worker.d");
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = WorkerConfig {
        worker: "w1".to_owned(),
        prune: true,
        ..WorkerConfig::new(&dir)
    };
    let summary = run_worker(&plan, &cfg).expect("works");
    assert!(summary.complete);
    let merged = coordinate(&plan, &dir).expect("merges");
    assert_eq!((merged.done, merged.failed, merged.pruned), (4, 1, 1));

    let text = std::fs::read_to_string(&merged.merged).expect("merged journal");
    assert_eq!(sorted_body(&text, &atrc), GOLDEN);
    let _ = std::fs::remove_dir_all(&dir);
}
