//! Content-addressed design-point result cache.
//!
//! A design point's outcome is a pure function of the trace content, the
//! datapath configuration, the SoC configuration, and the flow (memory
//! kind + DMA optimization level). The cache keys on exactly that —
//! [`Trace::fingerprint`] plus the `Debug` rendering of every config — so
//! `all_figures`, checked-vs-unchecked runs, and repeated `dse`
//! invocations skip points they have already simulated, and any change to
//! any config field or to the trace changes the key and misses.
//!
//! Two tiers:
//!
//! * **in-memory** (default on): a process-wide map shared by all sweeps.
//!   Hits return a clone of the stored [`FlowResult`] — bit-identical by
//!   construction.
//! * **on-disk** (opt-in): text files under `target/sweep-cache/`, one per
//!   point, surviving across processes. Files fan out into 256 shard
//!   directories keyed by the first byte of the hashed name, so many
//!   workers (or CI jobs) sharing one cache directory never contend on a
//!   single giant listing; writes stay lock-free (atomic temp+rename) and
//!   an advisory lock guards only the observational shard index
//!   ([`maintain_shard_index`]). Floats are written with `{:?}`
//!   (shortest round-tripping representation), so a disk hit is also
//!   bit-identical. Files embed their full key and a format version; a
//!   mismatch on either (hash collision, stale format) is treated as a
//!   miss. Disk persistence is opt-in because results are only valid for
//!   the simulator build that wrote them — wipe the directory (or bump
//!   [`FORMAT_VERSION`]) when simulation semantics change.
//!
//! Control via environment: `ALADDIN_SWEEP_CACHE=off|mem|full` (default
//! `mem`), `ALADDIN_SWEEP_CACHE_DIR=<dir>` to relocate the disk tier.
//! Tests and benches use [`set_sweep_cache_mode`]/[`reset_sweep_cache`]
//! instead of mutating the environment.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock};

use aladdin_accel::{DatapathConfig, FuTiming, LaneSync};
use aladdin_core::{DmaOptLevel, FlowResult, MemKind, SocConfig};
use aladdin_ir::{ContentHasher, Trace};
use aladdin_mem::Clock;

/// Bumped whenever the on-disk rendering of a [`FlowResult`] (or the
/// meaning of any simulated quantity) changes; older files then miss.
pub const FORMAT_VERSION: u32 = 1;

/// Which tiers of the result cache are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepCacheMode {
    /// No caching: every point is simulated.
    Off,
    /// In-memory tier only (the default).
    Mem,
    /// In-memory plus the on-disk tier under the cache directory.
    Full,
}

struct CacheState {
    mode: SweepCacheMode,
    dir: PathBuf,
    mem: HashMap<String, FlowResult>,
}

fn state() -> &'static Mutex<CacheState> {
    static STATE: OnceLock<Mutex<CacheState>> = OnceLock::new();
    STATE.get_or_init(|| {
        let mode = match std::env::var("ALADDIN_SWEEP_CACHE").as_deref() {
            Ok("off") => SweepCacheMode::Off,
            Ok("full") => SweepCacheMode::Full,
            _ => SweepCacheMode::Mem,
        };
        let dir = std::env::var("ALADDIN_SWEEP_CACHE_DIR")
            .map_or_else(|_| PathBuf::from("target/sweep-cache"), PathBuf::from);
        Mutex::new(CacheState {
            mode,
            dir,
            mem: HashMap::new(),
        })
    })
}

fn lock() -> std::sync::MutexGuard<'static, CacheState> {
    state()
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Override the cache mode for this process (tests and benches; normal
/// runs configure via `ALADDIN_SWEEP_CACHE`).
pub fn set_sweep_cache_mode(mode: SweepCacheMode) {
    lock().mode = mode;
}

/// The process's cache mode.
pub(crate) fn mode() -> SweepCacheMode {
    lock().mode
}

/// Override the on-disk tier's directory for this process.
pub fn set_sweep_cache_dir(dir: &Path) {
    lock().dir = dir.to_path_buf();
}

/// Drop every in-memory cached result (the disk tier is untouched).
/// Benches call this to measure cold-cache throughput.
pub fn reset_sweep_cache() {
    lock().mem.clear();
}

/// Serializes tests that flip the process-global cache mode/directory, so
/// disk-tier tests in different modules cannot interleave.
#[cfg(test)]
pub(crate) fn test_disk_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The canonical cache key of a design point. Every field of every config
/// participates (via `Debug`, which renders floats exactly), so changing
/// anything — trace content, a latency, a cache geometry, the DMA
/// optimization level — yields a different key.
#[must_use]
pub(crate) fn point_key(
    trace_fp: u128,
    kind: MemKind,
    dp: &DatapathConfig,
    soc: &SocConfig,
) -> String {
    format!("v{FORMAT_VERSION}|{trace_fp:032x}|{kind:?}|{dp:?}|{soc:?}")
}

/// The 128-bit content hash of the key — the disk file name.
fn file_name(key: &str) -> String {
    let mut h = ContentHasher::new();
    h.str(key);
    format!("{:032x}.flow", h.finish())
}

/// The fanout shard a cache file lives in: the first two hex digits of
/// its hashed name, giving 256 directories. Concurrent workers and CI
/// jobs sharing one cache directory then contend on (at most) one shard's
/// directory entries instead of one giant flat listing — and a shard
/// never needs a lock, because files are written atomically and their
/// names are content-addressed.
fn shard_of(name: &str) -> &str {
    &name[..2]
}

/// The sharded on-disk path of a cache file.
fn sharded_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(shard_of(name)).join(name)
}

/// Look `key` up: memory tier first, then (mode permitting) disk. A disk
/// hit is promoted into the memory tier. The disk tier reads the sharded
/// path first and falls back to the pre-sharding flat layout (promoting
/// such hits into their shard) so caches written by older builds stay
/// warm.
pub(crate) fn lookup(key: &str) -> Option<FlowResult> {
    let mut st = lock();
    match st.mode {
        SweepCacheMode::Off => None,
        SweepCacheMode::Mem => st.mem.get(key).cloned(),
        SweepCacheMode::Full => {
            if let Some(r) = st.mem.get(key) {
                return Some(r.clone());
            }
            let name = file_name(key);
            let path = sharded_path(&st.dir, &name);
            let text = match std::fs::read_to_string(&path) {
                Ok(text) => text,
                Err(_) => {
                    // Legacy flat layout: migrate the file into its shard
                    // so the next reader finds it directly. Rename is
                    // atomic; a concurrent promoter losing the race is
                    // harmless (the content is identical).
                    let flat = st.dir.join(&name);
                    let text = std::fs::read_to_string(&flat).ok()?;
                    let _ = std::fs::create_dir_all(st.dir.join(shard_of(&name)));
                    let _ = std::fs::rename(&flat, &path);
                    text
                }
            };
            let r = parse_flow(&text, key)?;
            st.mem.insert(key.to_owned(), r.clone());
            Some(r)
        }
    }
}

/// Store a freshly simulated result under `key` in every active tier.
/// Disk writes go to the key's fanout shard and are atomic (unique temp
/// file + rename) so concurrent sweeps — in this process or another —
/// can never observe a torn file; any I/O failure silently degrades to
/// not-cached.
pub(crate) fn insert(key: &str, result: &FlowResult) {
    let mut st = lock();
    if st.mode == SweepCacheMode::Off {
        return;
    }
    st.mem.insert(key.to_owned(), result.clone());
    if st.mode == SweepCacheMode::Full {
        let text = render_flow(result, key);
        let name = file_name(key);
        let shard = st.dir.join(shard_of(&name));
        let path = shard.join(&name);
        // The temp name carries the pid and a process-local counter:
        // unique across racing processes *and* racing threads.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = shard.join(format!("{name}.tmp-{}-{seq}", std::process::id()));
        let _ = std::fs::create_dir_all(&shard);
        if std::fs::write(&tmp, text).is_ok() {
            let _ = std::fs::rename(&tmp, &path);
        }
    }
}

/// Whether a design point's result is already cached (in any active
/// tier), without simulating it. A disk hit is promoted into the memory
/// tier, so probing points a campaign is about to run is free work, not
/// wasted work. `sweep plan` uses this for its cache-hit forecast.
#[must_use]
pub fn point_cached(trace: &Trace, dp: &DatapathConfig, soc: &SocConfig, kind: MemKind) -> bool {
    lookup(&point_key(trace.fingerprint(), kind, dp, soc)).is_some()
}

// ---------------------------------------------------------------------------
// Shard index maintenance.

/// How long an advisory shard-index lock may sit unrefreshed before
/// another process declares its holder dead and breaks it.
const INDEX_LOCK_STALE: std::time::Duration = std::time::Duration::from_secs(10);

/// What one [`maintain_shard_index`] call found and did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardIndexReport {
    /// `(shard directory name, cached files inside)`, sorted by shard.
    pub entries: Vec<(String, u64)>,
    /// Total cached result files across every shard.
    pub files: u64,
    /// Result files still sitting in the pre-sharding flat layout.
    pub legacy_files: u64,
    /// Whether a stale advisory lock (holder died mid-maintenance) was
    /// broken to proceed — surfaced as an `L0293` shard-index repair.
    pub repaired_lock: bool,
    /// Whether the index file was (re)written. `false` means another
    /// live process held the lock; its index is as good as ours.
    pub written: bool,
}

/// Rebuild the disk tier's shard index (`shards.idx`): one line per
/// fanout shard with its cached-file count, plus a total. The index is
/// purely observational — lookups never consult it — so it is maintained
/// under an *advisory* lock only: concurrent sweeps keep inserting
/// lock-free (atomic temp+rename) while one maintainer at a time counts
/// and rewrites the index. A lock left behind by a dead maintainer is
/// broken after [`INDEX_LOCK_STALE`] and reported as repaired.
///
/// Pass `None` to index the process-configured cache directory.
#[must_use]
pub fn maintain_shard_index(dir: Option<&Path>) -> ShardIndexReport {
    let dir = dir.map_or_else(|| lock().dir.clone(), Path::to_path_buf);
    let mut report = ShardIndexReport::default();
    if !dir.is_dir() {
        return report;
    }

    // Advisory lock: create_new is atomic, so exactly one maintainer
    // wins. A stale lock (mtime beyond the horizon) is broken once.
    let lock_path = dir.join("shards.lock");
    let mut acquired = false;
    for attempt in 0..2 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut f) => {
                use std::io::Write as _;
                let _ = writeln!(f, "{}", std::process::id());
                acquired = true;
                break;
            }
            Err(_) if attempt == 0 => {
                let stale = std::fs::metadata(&lock_path)
                    .and_then(|m| m.modified())
                    .ok()
                    .and_then(|t| t.elapsed().ok())
                    .is_some_and(|age| age > INDEX_LOCK_STALE);
                if stale {
                    let _ = std::fs::remove_file(&lock_path);
                    report.repaired_lock = true;
                } else {
                    return report; // a live maintainer holds it
                }
            }
            Err(_) => return report,
        }
    }
    if !acquired {
        return report;
    }

    for entry in std::fs::read_dir(&dir).into_iter().flatten().flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if entry.path().is_dir() && name.len() == 2 && name.bytes().all(|b| b.is_ascii_hexdigit()) {
            let count = std::fs::read_dir(entry.path())
                .into_iter()
                .flatten()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".flow"))
                .count() as u64;
            report.files += count;
            report.entries.push((name, count));
        } else if name.ends_with(".flow") {
            report.legacy_files += 1;
        }
    }
    report.entries.sort();

    let mut text = String::from("aladdin-shard-index v1\n");
    for (shard, count) in &report.entries {
        let _ = writeln!(text, "{shard} {count}");
    }
    let _ = writeln!(
        text,
        "total {} legacy {}",
        report.files, report.legacy_files
    );
    let tmp = dir.join(format!("shards.idx.tmp-{}", std::process::id()));
    if std::fs::write(&tmp, text).is_ok() && std::fs::rename(&tmp, dir.join("shards.idx")).is_ok() {
        report.written = true;
    }
    let _ = std::fs::remove_file(&lock_path);
    report
}

// ---------------------------------------------------------------------------
// On-disk text format: line-oriented `field value...` pairs, floats via
// `{:?}` (round-trips exactly), preceded by a version/key header that must
// match on read.

fn render_flow(r: &FlowResult, key: &str) -> String {
    let mut s = String::with_capacity(1024);
    let _ = writeln!(s, "aladdin-sweep-cache v{FORMAT_VERSION}");
    let _ = writeln!(s, "key {key}");
    let _ = writeln!(s, "kernel {}", r.kernel);
    let kind = match r.mem_kind {
        MemKind::Isolated => "isolated".to_owned(),
        MemKind::Dma(opt) => format!("dma-{opt:?}"),
        MemKind::Cache => "cache".to_owned(),
    };
    let _ = writeln!(s, "mem_kind {kind}");
    let _ = writeln!(
        s,
        "datapath {} {} {}",
        r.datapath.lanes, r.datapath.partition, r.datapath.ports_per_bank
    );
    let lat: Vec<String> = aladdin_ir::FuClass::ALL
        .iter()
        .map(|&c| r.datapath.timing.latency(c).to_string())
        .collect();
    let _ = writeln!(s, "timing {}", lat.join(" "));
    let sync = match r.datapath.sync {
        LaneSync::Barrier => "barrier",
        LaneSync::Free => "free",
    };
    let _ = writeln!(s, "sync {sync}");
    let _ = writeln!(s, "span {} {} {}", r.start, r.end, r.total_cycles);
    let p = r.phases;
    let _ = writeln!(
        s,
        "phases {} {} {} {} {} {}",
        p.flush_only, p.dma_flush, p.compute_dma, p.compute_only, p.other, p.total
    );
    let e = &r.energy;
    let _ = writeln!(
        s,
        "energy {:?} {:?} {:?} {} {:?}",
        e.datapath_pj,
        e.local_mem_pj,
        e.leakage_mw,
        e.runtime_cycles,
        e.clock.period_ns()
    );
    let _ = writeln!(
        s,
        "sched {} {} {} {}",
        r.compute_busy_cycles, r.mem_rejects, r.sched_stepped_cycles, r.sched_events
    );
    match r.spad_stats {
        Some(st) => {
            let _ = writeln!(
                s,
                "spad {} {} {} {} {}",
                st.reads, st.writes, st.bank_conflicts, st.ready_stalls, st.ready_stall_cycles
            );
        }
        None => {
            let _ = writeln!(s, "spad none");
        }
    }
    match r.cache_stats {
        Some(st) => {
            let _ = writeln!(
                s,
                "cache {} {} {} {} {} {} {} {} {}",
                st.hits,
                st.misses,
                st.secondary_misses,
                st.port_rejects,
                st.mshr_rejects,
                st.writebacks,
                st.writethroughs,
                st.prefetches,
                st.useful_prefetches
            );
        }
        None => {
            let _ = writeln!(s, "cache none");
        }
    }
    match r.tlb_stats {
        Some(st) => {
            let _ = writeln!(s, "tlb {} {}", st.hits, st.misses);
        }
        None => {
            let _ = writeln!(s, "tlb none");
        }
    }
    match r.dma_stats {
        Some(st) => {
            let _ = writeln!(s, "dma {} {} {}", st.descriptors, st.bursts, st.bytes);
        }
        None => {
            let _ = writeln!(s, "dma none");
        }
    }
    let _ = writeln!(s, "local {} {}", r.local_sram_bytes, r.local_mem_bandwidth);
    s
}

/// Parse a cache file, validating its header against `expected_key`.
/// Any malformation yields `None` (treated as a miss).
fn parse_flow(text: &str, expected_key: &str) -> Option<FlowResult> {
    let mut lines = text.lines();
    if lines.next()? != format!("aladdin-sweep-cache v{FORMAT_VERSION}") {
        return None;
    }
    if lines.next()?.strip_prefix("key ")? != expected_key {
        return None;
    }

    fn field<'a>(line: &'a str, name: &str) -> Option<Vec<&'a str>> {
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        Some(rest.split(' ').collect())
    }
    fn one<T: std::str::FromStr>(v: &[&str], i: usize) -> Option<T> {
        v.get(i)?.parse().ok()
    }

    let kernel = lines.next()?.strip_prefix("kernel ")?.to_owned();
    let mem_kind = match lines.next()?.strip_prefix("mem_kind ")? {
        "isolated" => MemKind::Isolated,
        "dma-Baseline" => MemKind::Dma(DmaOptLevel::Baseline),
        "dma-Pipelined" => MemKind::Dma(DmaOptLevel::Pipelined),
        "dma-Full" => MemKind::Dma(DmaOptLevel::Full),
        "cache" => MemKind::Cache,
        _ => return None,
    };
    let d = field(lines.next()?, "datapath")?;
    let t = field(lines.next()?, "timing")?;
    if t.len() != 6 {
        return None;
    }
    let mut latencies = [0u64; 6];
    for (slot, v) in latencies.iter_mut().zip(&t) {
        *slot = v.parse().ok()?;
    }
    let sync = match lines.next()?.strip_prefix("sync ")? {
        "barrier" => LaneSync::Barrier,
        "free" => LaneSync::Free,
        _ => return None,
    };
    let datapath = DatapathConfig {
        lanes: one(&d, 0)?,
        partition: one(&d, 1)?,
        ports_per_bank: one(&d, 2)?,
        timing: FuTiming::from_latencies(latencies),
        sync,
    };
    let span = field(lines.next()?, "span")?;
    let p = field(lines.next()?, "phases")?;
    let phases = aladdin_core::PhaseBreakdown {
        flush_only: one(&p, 0)?,
        dma_flush: one(&p, 1)?,
        compute_dma: one(&p, 2)?,
        compute_only: one(&p, 3)?,
        other: one(&p, 4)?,
        total: one(&p, 5)?,
    };
    let e = field(lines.next()?, "energy")?;
    let energy = aladdin_accel::EnergyReport {
        datapath_pj: one(&e, 0)?,
        local_mem_pj: one(&e, 1)?,
        leakage_mw: one(&e, 2)?,
        runtime_cycles: one(&e, 3)?,
        clock: Clock::try_from_period_ns(one(&e, 4)?).ok()?,
    };
    let sched = field(lines.next()?, "sched")?;
    let spad_line = lines.next()?;
    let spad_stats = if spad_line == "spad none" {
        None
    } else {
        let v = field(spad_line, "spad")?;
        Some(aladdin_accel::SpadStats {
            reads: one(&v, 0)?,
            writes: one(&v, 1)?,
            bank_conflicts: one(&v, 2)?,
            ready_stalls: one(&v, 3)?,
            ready_stall_cycles: one(&v, 4)?,
        })
    };
    let cache_line = lines.next()?;
    let cache_stats = if cache_line == "cache none" {
        None
    } else {
        let v = field(cache_line, "cache")?;
        Some(aladdin_mem::CacheStats {
            hits: one(&v, 0)?,
            misses: one(&v, 1)?,
            secondary_misses: one(&v, 2)?,
            port_rejects: one(&v, 3)?,
            mshr_rejects: one(&v, 4)?,
            writebacks: one(&v, 5)?,
            writethroughs: one(&v, 6)?,
            prefetches: one(&v, 7)?,
            useful_prefetches: one(&v, 8)?,
        })
    };
    let tlb_line = lines.next()?;
    let tlb_stats = if tlb_line == "tlb none" {
        None
    } else {
        let v = field(tlb_line, "tlb")?;
        Some(aladdin_mem::TlbStats {
            hits: one(&v, 0)?,
            misses: one(&v, 1)?,
        })
    };
    let dma_line = lines.next()?;
    let dma_stats = if dma_line == "dma none" {
        None
    } else {
        let v = field(dma_line, "dma")?;
        Some(aladdin_mem::DmaStats {
            descriptors: one(&v, 0)?,
            bursts: one(&v, 1)?,
            bytes: one(&v, 2)?,
        })
    };
    let local = field(lines.next()?, "local")?;

    Some(FlowResult {
        kernel,
        mem_kind,
        datapath,
        start: one(&span, 0)?,
        end: one(&span, 1)?,
        total_cycles: one(&span, 2)?,
        phases,
        energy,
        compute_busy_cycles: one(&sched, 0)?,
        mem_rejects: one(&sched, 1)?,
        spad_stats,
        cache_stats,
        tlb_stats,
        dma_stats,
        local_sram_bytes: one(&local, 0)?,
        local_mem_bandwidth: one(&local, 1)?,
        sched_stepped_cycles: one(&sched, 2)?,
        sched_events: one(&sched, 3)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_point_cached;
    use aladdin_workloads::by_name;

    fn sample_result(kind: MemKind) -> FlowResult {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let dp = DatapathConfig {
            lanes: 2,
            partition: 2,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        aladdin_core::simulate(&trace, &dp, &soc, &aladdin_core::FlowSpec::new(kind))
            .expect("completes")
    }

    #[test]
    fn text_round_trip_is_bit_exact_for_every_flow() {
        for kind in [
            MemKind::Isolated,
            MemKind::Dma(DmaOptLevel::Baseline),
            MemKind::Dma(DmaOptLevel::Pipelined),
            MemKind::Dma(DmaOptLevel::Full),
            MemKind::Cache,
        ] {
            let r = sample_result(kind);
            let text = render_flow(&r, "some-key");
            let back = parse_flow(&text, "some-key").expect("parses");
            assert_eq!(r, back, "{kind:?}");
        }
    }

    #[test]
    fn header_mismatches_are_misses() {
        let r = sample_result(MemKind::Isolated);
        let text = render_flow(&r, "key-a");
        // Wrong key (hash collision or stale config) → miss.
        assert!(parse_flow(&text, "key-b").is_none());
        // Wrong format version → miss.
        let stale = text.replacen(
            &format!("v{FORMAT_VERSION}"),
            &format!("v{}", FORMAT_VERSION + 1),
            1,
        );
        assert!(parse_flow(&stale, "key-a").is_none());
        // Truncated file → miss, not a panic.
        let cut = &text[..text.len() / 2];
        assert!(parse_flow(cut, "key-a").is_none());
    }

    #[test]
    fn key_changes_with_trace_and_every_config_field() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let other = by_name("fft-transpose").expect("kernel").run().trace;
        let dp = DatapathConfig::default();
        let soc = SocConfig::default();
        let base = point_key(trace.fingerprint(), MemKind::Cache, &dp, &soc);

        // Trace fingerprint participates.
        assert_ne!(
            base,
            point_key(other.fingerprint(), MemKind::Cache, &dp, &soc)
        );
        // Flow kind participates.
        assert_ne!(
            base,
            point_key(trace.fingerprint(), MemKind::Isolated, &dp, &soc)
        );
        assert_ne!(
            point_key(
                trace.fingerprint(),
                MemKind::Dma(DmaOptLevel::Baseline),
                &dp,
                &soc
            ),
            point_key(
                trace.fingerprint(),
                MemKind::Dma(DmaOptLevel::Full),
                &dp,
                &soc
            )
        );
        // Every datapath field participates (Debug covers all fields).
        let dp2 = DatapathConfig {
            ports_per_bank: 2,
            ..dp
        };
        assert_ne!(
            base,
            point_key(trace.fingerprint(), MemKind::Cache, &dp2, &soc)
        );
        // SoC fields participate — including nested cache geometry.
        let mut soc2 = soc;
        soc2.cache.size_bytes *= 2;
        assert_ne!(
            base,
            point_key(trace.fingerprint(), MemKind::Cache, &dp, &soc2)
        );
        let mut soc3 = soc;
        soc3.invoke_cycles += 1;
        assert_ne!(
            base,
            point_key(trace.fingerprint(), MemKind::Cache, &dp, &soc3)
        );
    }

    /// Satellite robustness property of the disk tier: a corrupted or
    /// truncated cache file is a silent miss — the point re-simulates
    /// bit-identically and the file is rewritten valid. Never a panic.
    #[test]
    fn corrupted_disk_files_are_misses_and_get_rewritten() {
        let _guard = crate::cache::test_disk_lock();
        let dir = std::path::PathBuf::from("target/test-sweep-cache-corrupt");
        let _ = std::fs::remove_dir_all(&dir);
        set_sweep_cache_dir(&dir);
        set_sweep_cache_mode(SweepCacheMode::Full);

        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let dp = DatapathConfig {
            lanes: 2,
            partition: 2,
            ..DatapathConfig::default()
        };
        // A SoC no other test sweeps, so these keys are ours alone.
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 23;
        let kind = MemKind::Dma(DmaOptLevel::Pipelined);
        let first = run_point_cached(&trace, &dp, &soc, kind);
        let key = point_key(trace.fingerprint(), kind, &dp, &soc);
        let path = sharded_path(&dir, &file_name(&key));
        assert!(path.exists(), "disk tier not written");

        let valid = render_flow(&first, &key);
        let corruptions: [&[u8]; 3] = [
            b"this is not a cache file at all\n",
            &[0xff, 0xfe, 0x00, 0x99, 0x01],      // invalid UTF-8
            &valid.as_bytes()[..valid.len() / 3], // truncated mid-record
        ];
        for garbage in corruptions {
            std::fs::write(&path, garbage).expect("corrupt the file");
            reset_sweep_cache(); // force the disk tier to be consulted
            let again = run_point_cached(&trace, &dp, &soc, kind);
            assert_eq!(first, again, "corrupted file must re-simulate bit-exactly");
            let rewritten = std::fs::read_to_string(&path).expect("file rewritten");
            assert!(
                parse_flow(&rewritten, &key).is_some(),
                "miss must rewrite a valid file"
            );
        }

        set_sweep_cache_mode(SweepCacheMode::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn file_names_are_distinct_and_stable() {
        let a = file_name("alpha");
        let b = file_name("beta");
        assert_ne!(a, b);
        assert_eq!(a, file_name("alpha"));
        assert!(a.ends_with(".flow"));
        // Shards are the first two hex digits of the name.
        assert_eq!(shard_of(&a), &a[..2]);
    }

    /// A pre-sharding flat cache file is still a hit, and the hit
    /// migrates it into its fanout shard.
    #[test]
    fn legacy_flat_files_hit_and_migrate_into_shards() {
        let _guard = crate::cache::test_disk_lock();
        let dir = std::path::PathBuf::from("target/test-sweep-cache-legacy");
        let _ = std::fs::remove_dir_all(&dir);
        set_sweep_cache_dir(&dir);
        set_sweep_cache_mode(SweepCacheMode::Full);

        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let dp = DatapathConfig {
            lanes: 4,
            ..DatapathConfig::default()
        };
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 31; // keys no other test owns
        let kind = MemKind::Isolated;
        let first = run_point_cached(&trace, &dp, &soc, kind);
        let key = point_key(trace.fingerprint(), kind, &dp, &soc);
        let name = file_name(&key);
        let sharded = sharded_path(&dir, &name);
        assert!(sharded.exists(), "inserts write the sharded layout");

        // Demote the file to the flat layout, as an old build would have
        // left it, and drop the memory tier.
        let flat = dir.join(&name);
        std::fs::rename(&sharded, &flat).expect("demote");
        reset_sweep_cache();
        let again = run_point_cached(&trace, &dp, &soc, kind);
        assert_eq!(first, again, "flat-layout hit must be bit-identical");
        assert!(sharded.exists(), "the hit migrates the file into its shard");
        assert!(!flat.exists(), "the flat copy is gone after migration");

        set_sweep_cache_mode(SweepCacheMode::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shard_index_counts_files_and_breaks_stale_locks() {
        let _guard = crate::cache::test_disk_lock();
        let dir = std::path::PathBuf::from("target/test-sweep-cache-index");
        let _ = std::fs::remove_dir_all(&dir);
        set_sweep_cache_dir(&dir);
        set_sweep_cache_mode(SweepCacheMode::Full);

        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 41;
        let mut expected = 0u64;
        for lanes in [1u32, 2, 4] {
            let dp = DatapathConfig {
                lanes,
                ..DatapathConfig::default()
            };
            let _ = run_point_cached(&trace, &dp, &soc, MemKind::Isolated);
            expected += 1;
        }
        let report = maintain_shard_index(Some(&dir));
        assert!(report.written, "uncontended maintenance writes the index");
        assert!(!report.repaired_lock);
        assert_eq!(report.files, expected);
        assert_eq!(report.entries.iter().map(|(_, c)| c).sum::<u64>(), expected);
        let idx = std::fs::read_to_string(dir.join("shards.idx")).expect("index written");
        assert!(idx.starts_with("aladdin-shard-index v1"), "{idx}");
        assert!(idx.contains(&format!("total {expected} legacy 0")), "{idx}");

        // A live (fresh) foreign lock defers maintenance entirely.
        std::fs::write(dir.join("shards.lock"), "99999\n").expect("plant lock");
        let deferred = maintain_shard_index(Some(&dir));
        assert!(!deferred.written, "fresh foreign lock defers");
        assert!(!deferred.repaired_lock);

        // An expired lock (holder died) is broken, reported, and
        // maintenance proceeds.
        let stale = std::time::SystemTime::now() - (INDEX_LOCK_STALE * 2);
        let lock_file = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("shards.lock"))
            .expect("open lock");
        lock_file.set_modified(stale).expect("age the lock");
        drop(lock_file);
        let repaired = maintain_shard_index(Some(&dir));
        assert!(repaired.repaired_lock, "stale lock must be broken");
        assert!(repaired.written);
        assert_eq!(repaired.files, expected);
        assert!(!dir.join("shards.lock").exists(), "lock released");

        set_sweep_cache_mode(SweepCacheMode::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
