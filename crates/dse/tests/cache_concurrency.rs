//! Cross-process stress test for the sharded disk result cache: two
//! racing processes insert and look up the same keys in one cache
//! directory. The properties under test are exactly the coordinator's
//! assumptions — no torn reads (every cached result read back equals a
//! fresh simulation), no lost results (every key both processes wrote is
//! present afterwards), and stable hit accounting (each lookup counted
//! exactly once, warm rounds all hit).
//!
//! The racers are this test binary re-exec'd with `CACHE_RACE_DIR` set,
//! which routes [`helper_racer`] into real cache traffic instead of
//! returning immediately.

use std::path::Path;
use std::process::{Command, Stdio};

use aladdin_accel::DatapathConfig;
use aladdin_core::{DmaOptLevel, MemKind, SocConfig};
use aladdin_dse::{
    global_perf, point_cached, run_point_cached, set_sweep_cache_dir, set_sweep_cache_mode,
    SweepCacheMode,
};
use aladdin_workloads::by_name;

const ROUNDS: u64 = 3;

/// Six distinct design points — both processes run all of them, so every
/// key sees insert/insert and insert/lookup races across shards.
fn points() -> Vec<(DatapathConfig, MemKind)> {
    let mut out = Vec::new();
    for lanes in [1u32, 2, 4] {
        for (partition, kind) in [
            (1u32, MemKind::Isolated),
            (2u32, MemKind::Dma(DmaOptLevel::Full)),
        ] {
            out.push((
                DatapathConfig {
                    lanes,
                    partition,
                    ..DatapathConfig::default()
                },
                kind,
            ));
        }
    }
    out
}

/// The racer entry point: inert unless the parent set `CACHE_RACE_DIR`.
#[test]
fn helper_racer() {
    let Ok(dir) = std::env::var("CACHE_RACE_DIR") else {
        return;
    };
    set_sweep_cache_dir(Path::new(&dir));
    set_sweep_cache_mode(SweepCacheMode::Full);
    let trace = by_name("aes-aes").expect("bundled kernel").run().trace;
    let soc = SocConfig::default();
    let points = points();
    for _round in 0..ROUNDS {
        for (dp, kind) in &points {
            let result = run_point_cached(&trace, dp, &soc, *kind);
            assert!(result.total_cycles > 0, "a cached result is never empty");
        }
    }
    // Stable hit accounting: every lookup counted exactly once, and all
    // warm rounds hit (the memory tier holds round 1's results whatever
    // the sibling process does to the disk).
    let perf = global_perf();
    let n = points.len() as u64;
    assert_eq!(perf.points, ROUNDS * n, "each lookup accounted once");
    assert!(
        perf.cache_hits >= (ROUNDS - 1) * n,
        "warm rounds must all hit: {} hits of {} lookups",
        perf.cache_hits,
        perf.points
    );
}

/// Spawn two racer processes on one cache directory, then audit the
/// directory from a third (this) process.
#[test]
fn two_processes_race_without_torn_or_lost_results() {
    let mut dir = std::env::temp_dir();
    dir.push(format!("aladdin-cache-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");

    // Ground truth first, cache off: what every cached read must equal.
    set_sweep_cache_mode(SweepCacheMode::Off);
    let trace = by_name("aes-aes").expect("bundled kernel").run().trace;
    let soc = SocConfig::default();
    let points = points();
    let baseline: Vec<_> = points
        .iter()
        .map(|(dp, kind)| run_point_cached(&trace, dp, &soc, *kind))
        .collect();

    let spawn = || {
        Command::new(std::env::current_exe().expect("own path"))
            .args(["helper_racer", "--exact", "--test-threads=1", "--nocapture"])
            .env("CACHE_RACE_DIR", &dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawns")
    };
    let mut a = spawn();
    let mut b = spawn();
    assert!(a.wait().expect("racer a exits").success(), "racer a clean");
    assert!(b.wait().expect("racer b exits").success(), "racer b clean");

    // This process's memory tier saw none of it (mode was Off), so every
    // check below reads the racers' disk files.
    set_sweep_cache_dir(&dir);
    set_sweep_cache_mode(SweepCacheMode::Full);

    // No lost results: every key both racers wrote is present.
    for (dp, kind) in &points {
        assert!(
            point_cached(trace.fingerprint(), dp, &soc, *kind),
            "point lanes={} partition={} {kind:?} lost in the race",
            dp.lanes,
            dp.partition
        );
    }
    // No torn reads: each read-back equals the uncached ground truth.
    for ((dp, kind), expect) in points.iter().zip(&baseline) {
        let got = run_point_cached(&trace, dp, &soc, *kind);
        assert_eq!(&got, expect, "cached result must be bit-identical");
    }

    // One file per distinct point, all in shards, and no orphaned temp
    // files from the insert/insert races.
    let (mut files, mut tmp_leftovers) = (0, 0);
    for shard in std::fs::read_dir(&dir).expect("cache dir").flatten() {
        assert!(shard.path().is_dir(), "only shard directories at the top");
        for f in std::fs::read_dir(shard.path()).expect("shard").flatten() {
            let name = f.file_name().to_string_lossy().into_owned();
            if name.contains(".tmp-") {
                tmp_leftovers += 1;
            } else if name.ends_with(".flow") {
                files += 1;
            }
        }
    }
    assert_eq!(files, points.len(), "one file per point");
    assert_eq!(tmp_leftovers, 0, "every temp file was renamed into place");

    // Leave the process-global cache the way other tests expect it.
    set_sweep_cache_mode(SweepCacheMode::Mem);
    let _ = std::fs::remove_dir_all(&dir);
}
