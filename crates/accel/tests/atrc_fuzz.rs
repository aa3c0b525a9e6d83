//! Seeded byte-mutation fuzzing of the `.atrc` decode → windowed-schedule
//! path. Every mutant has its whole-file checksum re-sealed, so corruption
//! gets past the envelope check and reaches the block and node decoders
//! and the scheduler. The property: any input yields a schedule or a typed
//! diagnostic (`L0280`, or a `SimError`), never a panic.
//!
//! Deterministic (fixed [`SmallRng`] seed) and bounded, so it runs in the
//! tier-1 suite.

use std::panic::{catch_unwind, AssertUnwindSafe};

use aladdin_accel::{try_schedule_windowed, DatapathConfig, SchedulerWorkspace, SpadMemory};
use aladdin_faults::Watchdog;
use aladdin_ir::{atrc_checksum, encode_trace, ArrayKind, AtrcTrace, Opcode, TVal, Trace, Tracer};
use aladdin_rng::SmallRng;

/// Trailer after the checksummed bytes: checksum (8 B) + closing magic (4 B).
const TRAILER: usize = 12;
const MUTANTS: usize = 2000;

/// A small kernel touching every record field: loads and stores over
/// three arrays, float and integer compute, and changing iteration labels.
fn kernel() -> Trace {
    let n = 96;
    let mut t = Tracer::new("fuzz");
    let a = t.array_f64("a", &vec![1.5; n], ArrayKind::Input);
    let b = t.array_f64("b", &vec![0.5; n], ArrayKind::Input);
    let mut c = t.array_f64("c", &vec![0.0; n], ArrayKind::Output);
    for i in 0..n {
        t.begin_iteration(i as u32);
        let x = t.load(&a, i);
        let y = t.load(&b, (i * 7) % n);
        let p = t.binop(Opcode::FMul, x, y);
        let k = t.ibinop(Opcode::Add, TVal::lit(i as i64), TVal::lit(3));
        let f = t.cast_f64(k);
        let s = t.binop(Opcode::FAdd, p, f);
        t.store(&mut c, i, s);
    }
    t.finish()
}

/// Recompute the whole-file checksum so a mutant passes the envelope.
fn reseal(bytes: &mut [u8]) {
    let Some(at) = bytes.len().checked_sub(TRAILER) else {
        return;
    };
    let check = atrc_checksum(&bytes[..at]);
    bytes[at..at + 8].copy_from_slice(&check.to_le_bytes());
}

/// One to four random edits inside the checksummed region: bit flips,
/// byte overwrites, insertions and deletions.
fn mutate(rng: &mut SmallRng, clean: &[u8]) -> Vec<u8> {
    let mut bytes = clean.to_vec();
    for _ in 0..rng.gen_range(1..5usize) {
        let body = bytes.len().saturating_sub(TRAILER);
        if body == 0 {
            break;
        }
        let at = rng.gen_range(0..body);
        match rng.gen_range(0..4u32) {
            0 => bytes[at] ^= 1 << rng.gen_range(0..8u32),
            1 => bytes[at] = rng.gen(),
            2 => bytes.insert(at, rng.gen()),
            _ => {
                bytes.remove(at);
            }
        }
    }
    reseal(&mut bytes);
    bytes
}

/// What a mutant did, for checking that the loop reaches every layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Outcome {
    /// `from_bytes` refused the envelope (framing, footer) with `L0280`.
    Refused,
    /// A node failed to decode mid-stream: `L0280` from the scheduler.
    Corrupt,
    /// The decoded graph never finished: deadlock (`L0232`) or watchdog
    /// (`L0233`).
    Stalled,
    /// The mutant decoded and scheduled to completion.
    Scheduled,
}

/// Decode and schedule `bytes`, or describe the untyped failure.
fn run(bytes: Vec<u8>, window: usize) -> Result<Outcome, String> {
    let atrc = match AtrcTrace::from_bytes(bytes) {
        Ok(a) => a,
        Err(d) if d.code == "L0280" => return Ok(Outcome::Refused),
        Err(d) => return Err(format!("decode failed with {} instead of L0280", d.code)),
    };
    let cfg = DatapathConfig::default();
    let mut mem = SpadMemory::from_arrays(atrc.arrays(), &cfg);
    let watchdog = Watchdog::default();
    let mut ws = SchedulerWorkspace::new();
    match try_schedule_windowed(atrc.nodes(), &cfg, &mut ws, &mut mem, 0, &watchdog, window) {
        Ok(_) => Ok(Outcome::Scheduled),
        Err(e) => match e.code() {
            "L0280" => Ok(Outcome::Corrupt),
            "L0232" | "L0233" => Ok(Outcome::Stalled),
            code => Err(format!("schedule failed with unexpected {code}: {e}")),
        },
    }
}

#[test]
fn mutated_atrc_never_panics() {
    let clean = encode_trace(&kernel());
    assert_eq!(run(clean.clone(), 64), Ok(Outcome::Scheduled));
    let mut rng = SmallRng::seed_from_u64(0xA7C0_F022);
    let mut failures = Vec::new();
    let mut seen = Vec::new();
    for i in 0..MUTANTS {
        let bytes = mutate(&mut rng, &clean);
        let window = [1, 16, 4096][i % 3];
        match catch_unwind(AssertUnwindSafe(|| run(bytes, window))) {
            Ok(Ok(outcome)) => seen.push(outcome),
            Ok(Err(msg)) => failures.push(format!("mutant {i}: {msg}")),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(ToString::to_string))
                    .unwrap_or_default();
                failures.push(format!("mutant {i}: panic: {msg}"));
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // Re-sealing must carry corruption past the envelope into the node
    // decoder and the scheduler, not just exercise `from_bytes`.
    let count = |o| seen.iter().filter(|&&s| s == o).count();
    assert!(
        count(Outcome::Corrupt) > 0 && count(Outcome::Scheduled) > 0,
        "refused {}, corrupt {}, scheduled {}",
        count(Outcome::Refused),
        count(Outcome::Corrupt),
        count(Outcome::Scheduled)
    );
}
