//! An `.atrc` file is read a block at a time, never held whole.
//!
//! A counting allocator tracks the live heap of the calling thread. Opening
//! a file, taking its statistics and iterating every node must keep the
//! peak under a fixed bound, and that peak must not grow with the file:
//! a 1M-node file needs no more than a 250k-node one. A file truncated or
//! rewritten in place after `open` must end every read of it in `L0280`,
//! never in a panic or in a clean result with different nodes.
//!
//! The allocator counts per thread, so tests running on other threads of
//! this binary do not disturb the count.
//!
//! The decode-ahead stream (`AtrcTrace::nodes_ahead`) must yield exactly
//! what `nodes()` yields, on good files and on files damaged before or
//! after `open`, and must leave no decoder thread behind once it is
//! dropped, however far it was read. Only the tests that take `AHEAD`
//! start decoder threads, so each can count them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard};

use aladdin_ir::{
    atrc_checksum, encode_trace, ArrayKind, AtrcSummary, AtrcTrace, Diagnostic, Opcode, TraceNode,
    Tracer,
};

struct Counting;

thread_local! {
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grow(bytes: usize) {
    // Ignore the count during thread teardown rather than panic in the
    // allocator.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes)));
}

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each call meets `System`'s contract exactly when the
// caller meets `GlobalAlloc`'s; counting touches only thread-local
// `Cell`s and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: forwarded unchanged; see the impl's comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Peak live heap of the calling thread while `f` runs, above what was
/// live when it started.
fn peak_heap<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    (out, PEAK.with(Cell::get) - base)
}

const HEAP_BOUND: usize = 1 << 20;

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

/// Stream a fused-multiply-add kernel of at least `nodes` nodes to
/// `path`, never materializing it. `salt` shifts the iteration labels, so
/// two salts give same-sized files with different nodes.
fn generate(path: &Path, nodes: usize, salt: u32) -> AtrcSummary {
    const LEN: usize = 4096;
    let mut t = Tracer::new("stream-fma");
    let file = File::create(path).expect("create trace file");
    t.stream_to(Box::new(BufWriter::new(file)))
        .expect("atrc header");
    let a = t.array_f64("a", &[1.5; LEN], ArrayKind::Input);
    let b = t.array_f64("b", &[0.5; LEN], ArrayKind::Input);
    let mut c = t.array_f64("c", &[0.0; LEN], ArrayKind::Output);
    let mut i: u32 = 0;
    while t.len() < nodes {
        t.begin_iteration(i + salt);
        let idx = i as usize % LEN;
        let x = t.load(&a, idx);
        let y = t.load(&b, idx);
        let p = t.binop(Opcode::FMul, x, y);
        let acc = t.load(&c, idx);
        let s = t.binop(Opcode::FAdd, p, acc);
        t.store(&mut c, idx, s);
        i += 1;
    }
    t.finish_streaming().expect("seal atrc")
}

/// Open, take statistics, and iterate every node; the node count and the
/// peak live heap of the three.
fn read_all(path: &Path) -> (u64, usize) {
    let (nodes, peak) = peak_heap(|| {
        let atrc = AtrcTrace::open(path).expect("opens");
        let stats = atrc.stats().expect("stats");
        let mut nodes = 0u64;
        for node in atrc.nodes() {
            node.expect("decodes");
            nodes += 1;
        }
        assert_eq!(stats.nodes as u64, nodes);
        assert_eq!(atrc.node_count(), nodes);
        nodes
    });
    (nodes, peak)
}

#[test]
fn reading_a_file_holds_a_bounded_heap() {
    let small = scratch("stream-250k.atrc");
    let big = scratch("stream-1m.atrc");
    let small_summary = generate(&small, 250_000, 0);
    let big_summary = generate(&big, 1_000_000, 0);
    assert!(big_summary.bytes > HEAP_BOUND as u64 * 4, "{big_summary:?}");
    let (small_nodes, small_peak) = read_all(&small);
    let (big_nodes, big_peak) = read_all(&big);
    assert_eq!(small_nodes, small_summary.nodes);
    assert_eq!(big_nodes, big_summary.nodes);
    assert!(
        big_peak < HEAP_BOUND,
        "{big_peak} B live heap reading a {} B file",
        big_summary.bytes
    );
    assert!(
        big_peak <= small_peak,
        "peak heap grew with the file: {small_peak} B at {small_nodes} nodes, \
         {big_peak} B at {big_nodes} nodes"
    );
}

/// Every way of reading `atrc` ends in `L0280`, never in a clean result.
fn assert_every_read_fails(atrc: &AtrcTrace, what: &str) {
    let is_l0280 = |d: Diagnostic| assert_eq!(d.code, "L0280", "{what}: {d}");
    is_l0280(atrc.decode().expect_err(what));
    is_l0280(atrc.stats().expect_err(what));
    let last = atrc.nodes().last().expect("a changed file yields an item");
    is_l0280(last.expect_err(what));
}

#[test]
fn files_changed_after_open_are_l0280() {
    const NODES: usize = 40_000;
    let reference = scratch("changed-reference.atrc");
    generate(&reference, NODES, 0);
    let clean = std::fs::read(&reference).expect("read reference");
    let original = AtrcTrace::open(&reference).expect("opens");
    let nodes = original.decode().expect("the clean file decodes");

    let fresh = |name: &str| {
        let path = scratch(name);
        std::fs::write(&path, &clean).expect("write copy");
        let atrc = AtrcTrace::open(&path).expect("opens");
        assert_eq!(atrc.decode().expect("decodes").nodes(), nodes.nodes());
        (path, atrc)
    };

    let (path, atrc) = fresh("changed-truncated.atrc");
    let file = OpenOptions::new().write(true).open(&path).expect("reopen");
    file.set_len(clean.len() as u64 / 2).expect("truncate");
    assert_every_read_fails(&atrc, "truncated to half");
    file.set_len(0).expect("truncate");
    assert_every_read_fails(&atrc, "truncated to nothing");

    let (path, atrc) = fresh("changed-flipped.atrc");
    let mut file = OpenOptions::new().write(true).open(&path).expect("reopen");
    let mid = clean.len() as u64 / 2;
    file.seek(SeekFrom::Start(mid)).expect("seek");
    file.write_all(&[clean[mid as usize] ^ 0x10])
        .expect("flip a byte");
    assert_every_read_fails(&atrc, "one block byte flipped");

    // A whole different trace of the same size, itself valid: the nodes
    // decode cleanly, so only the re-hash can tell.
    let (path, atrc) = fresh("changed-replaced.atrc");
    let other = scratch("changed-other.atrc");
    generate(&other, NODES, 1);
    let other = std::fs::read(&other).expect("read other");
    assert_eq!(other.len(), clean.len());
    assert!(AtrcTrace::from_bytes(other.clone()).is_ok());
    let mut file = OpenOptions::new().write(true).open(&path).expect("reopen");
    file.write_all(&other).expect("rewrite in place");
    assert_every_read_fails(&atrc, "rewritten with another trace");
}

/// In-memory bytes take the same validator and block reader as a file.
#[test]
fn bytes_and_files_read_alike() {
    let path = scratch("alike.atrc");
    generate(&path, 20_000, 0);
    let from_file = AtrcTrace::open(&path).expect("opens");
    let from_bytes = AtrcTrace::from_bytes(std::fs::read(&path).expect("read")).expect("valid");
    assert_eq!(from_file.encoded_bytes(), from_bytes.encoded_bytes());
    assert_eq!(from_file.fingerprint(), from_bytes.fingerprint());
    let decoded = from_file.decode().expect("decodes");
    assert_eq!(
        decoded.nodes(),
        from_bytes.decode().expect("decodes").nodes()
    );
    assert_eq!(encode_trace(&decoded), std::fs::read(&path).expect("read"));
}

/// Held by every test that starts decoder threads, so none sees
/// another's.
static AHEAD: Mutex<()> = Mutex::new(());

fn ahead_lock() -> MutexGuard<'static, ()> {
    AHEAD
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Threads of this process named like the decode-ahead thread. Linux
/// names threads in `/proc/self/task/*/comm`; elsewhere the count reads
/// 0 and only the item checks run.
fn named_decoders() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|t| std::fs::read_to_string(t.ok()?.path().join("comm")).ok())
        .filter(|name| name.trim_end() == "atrc-decode")
        .count()
}

/// Decoder threads still alive. A joined thread can stay listed for the
/// moment the kernel takes to reap it after `join` returns, so the count
/// is read until it reaches 0, for at most a second; a decoder that was
/// left running, or blocked, stays listed.
fn decoder_threads() -> usize {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(1);
    loop {
        let n = named_decoders();
        if n == 0 || std::time::Instant::now() > deadline {
            return n;
        }
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
}

/// A node stream's items, collected.
type Items = Vec<Result<TraceNode, Diagnostic>>;

/// Both streams of `atrc`, item by item: `nodes()` and `nodes_ahead()`.
fn both_streams(atrc: &AtrcTrace) -> (Items, Items) {
    (atrc.nodes().collect(), atrc.nodes_ahead().collect())
}

/// The decode-ahead stream of `atrc` yields exactly the items of
/// `nodes()`, ends the way it does, and leaves no decoder running.
fn assert_ahead_matches(atrc: &AtrcTrace, what: &str, clean: bool) {
    let (inline, ahead) = both_streams(atrc);
    assert_eq!(ahead.len(), inline.len(), "{what}: item count");
    assert!(ahead == inline, "{what}: items differ");
    assert_eq!(
        inline.iter().all(Result::is_ok),
        clean,
        "{what}: expected a {} stream",
        if clean { "clean" } else { "failing" }
    );
    if !clean {
        let errors = ahead.iter().filter(|n| n.is_err()).count();
        assert_eq!(errors, 1, "{what}: one L0280, last");
        let last = ahead.last().expect("an item");
        assert_eq!(last.as_ref().expect_err(what).code, "L0280", "{what}");
    }
    assert_eq!(
        decoder_threads(),
        0,
        "{what}: a decoder outlived its stream"
    );
}

#[test]
fn decode_ahead_yields_what_nodes_yields() {
    let _lock = ahead_lock();
    const NODES: usize = 30_000;
    let path = scratch("ahead-reference.atrc");
    generate(&path, NODES, 0);
    let clean = std::fs::read(&path).expect("read reference");

    let good = AtrcTrace::open(&path).expect("opens");
    assert_ahead_matches(&good, "a good file", true);
    let empty = AtrcTrace::from_bytes(encode_trace(&Tracer::new("empty").finish())).expect("valid");
    assert_ahead_matches(&empty, "an empty trace", true);

    // A block byte flipped and the checksum re-sealed: `open` accepts
    // the file, and decoding fails mid-stream, after good batches.
    for at in [clean.len() / 3, clean.len() / 2] {
        let mut bytes = clean.clone();
        bytes[at] ^= 0x40;
        let body = bytes.len() - 12;
        let check = atrc_checksum(&bytes[..body]);
        bytes[body..body + 8].copy_from_slice(&check.to_le_bytes());
        if let Ok(atrc) = AtrcTrace::from_bytes(bytes) {
            let (inline, _) = both_streams(&atrc);
            let clean = inline.iter().all(Result::is_ok);
            assert_ahead_matches(&atrc, &format!("byte {at} flipped, re-sealed"), clean);
        }
    }

    let fresh = |name: &str| {
        let path = scratch(name);
        std::fs::write(&path, &clean).expect("write copy");
        (path.clone(), AtrcTrace::open(&path).expect("opens"))
    };
    let (path, atrc) = fresh("ahead-truncated.atrc");
    let file = OpenOptions::new().write(true).open(&path).expect("reopen");
    file.set_len(clean.len() as u64 / 2).expect("truncate");
    assert_ahead_matches(&atrc, "truncated after open", false);

    let (path, atrc) = fresh("ahead-flipped.atrc");
    let mut file = OpenOptions::new().write(true).open(&path).expect("reopen");
    let mid = clean.len() as u64 / 2;
    file.seek(SeekFrom::Start(mid)).expect("seek");
    file.write_all(&[clean[mid as usize] ^ 0x10])
        .expect("flip a byte");
    assert_ahead_matches(&atrc, "a byte flipped after open", false);

    let (path, atrc) = fresh("ahead-replaced.atrc");
    let other = scratch("ahead-other.atrc");
    generate(&other, NODES, 1);
    let other = std::fs::read(&other).expect("read other");
    assert_eq!(other.len(), clean.len());
    let mut file = OpenOptions::new().write(true).open(&path).expect("reopen");
    file.write_all(&other).expect("rewrite in place");
    assert_ahead_matches(&atrc, "rewritten after open", false);
}

#[test]
fn a_dropped_stream_leaves_no_decoder_running() {
    let _lock = ahead_lock();
    let path = scratch("ahead-drop.atrc");
    let summary = generate(&path, 20_000, 0);
    let atrc = AtrcTrace::open(&path).expect("opens");
    let total = usize::try_from(summary.nodes).expect("fits");
    let reference: Vec<_> = atrc.nodes().take(total).collect();
    for k in [0, 1, 4095, 4096, 4097, 10_000, total - 1, total, total + 1] {
        let mut ahead = atrc.nodes_ahead();
        let read: Vec<_> = ahead.by_ref().take(k).collect();
        assert!(read == reference[..k.min(total)], "first {k} items differ");
        drop(ahead);
        assert_eq!(
            decoder_threads(),
            0,
            "a decoder outlived a stream dropped after {k}"
        );
    }
}
