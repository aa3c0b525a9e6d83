//! Deterministic fault injection and simulation watchdogs.
//!
//! The paper argues that accelerator designs only make sense co-simulated
//! with the messy parts of the SoC — DMA setup, cache flush/invalidate,
//! TLB walks, bus contention. Those mechanisms are exactly the ones that
//! misbehave in real silicon, yet a simulator that models them perfectly
//! can only ever confirm the happy path. This crate supplies the two
//! ingredients for validating the model *under perturbation*:
//!
//! * A [`FaultPlan`]: a seeded, bounded description of timing faults to
//!   inject — bus grant delays, burst NACKs with retry/backoff, DRAM
//!   latency spikes, TLB page-fault walks, flush-contention stalls. Each
//!   injection site draws from its own [`SmallRng`] stream (seeded from
//!   `plan.seed ^ site_salt`), so results are bit-reproducible regardless
//!   of thread scheduling, and every perturbation is bounded, so any
//!   simulation under any plan still terminates.
//! * A [`Watchdog`] plus the typed [`SimError`]: instead of `panic!`-ing
//!   on a scheduler deadlock or runaway simulation, fallible simulation
//!   entry points return `Err(SimError)` carrying a forensic
//!   [`DeadlockSnapshot`] rendered through the shared
//!   [`aladdin_ir::Diagnostic`] vocabulary (codes `L0232`/`L0233`), so a
//!   sweep can mark the point failed and keep going.
//!
//! The zero-overhead off switch is structural: an empty plan constructs
//! no injectors, and every injection hook in the memory system is an
//! `Option` that adds nothing when `None` — results with
//! [`FaultPlan::none`] are bit-identical to a build without this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

use aladdin_ir::{Diagnostic, Locus, Report};
use aladdin_rng::SmallRng;

/// Per-site seed salts.
///
/// Each injection site XORs its salt into [`FaultPlan::seed`] before
/// seeding its private [`SmallRng`], so the sites draw from decorrelated
/// streams and adding one site never shifts another site's draws.
pub mod salt {
    /// Bus grant-delay injector.
    pub const BUS_GRANT: u64 = 0x6275_735f_6772_616e;
    /// Bus burst-NACK injector.
    pub const BUS_NACK: u64 = 0x6275_735f_6e61_636b;
    /// DRAM latency-spike injector.
    pub const DRAM: u64 = 0x6472_616d_5f73_706b;
    /// TLB page-fault-walk injector.
    pub const TLB: u64 = 0x746c_625f_7761_6c6b;
    /// Flush-contention stall injector.
    pub const FLUSH: u64 = 0x666c_7573_685f_7374;
}

/// Largest accepted `max_extra`/`backoff_cycles` magnitude.
///
/// Keeps every plan's worst-case perturbation small next to the no-progress
/// watchdog, so injection can never be mistaken for a deadlock.
pub const MAX_FAULT_MAGNITUDE: u64 = 1_000_000;

/// Largest accepted NACK retry count per bus request.
pub const MAX_NACK_RETRIES: u32 = 1024;

/// One probabilistic delay-injection site: with probability `rate` per
/// opportunity, add `1..=max_extra` cycles of latency.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Injection probability per opportunity, in `[0, 1]`.
    pub rate: f64,
    /// Upper bound (inclusive) on the injected extra cycles.
    pub max_extra: u64,
}

/// Bus burst-NACK behavior: with probability `rate` a granted burst is
/// refused and retried after `backoff_cycles`, at most `max_retries`
/// times per request (then the grant is forced, keeping termination).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NackSpec {
    /// NACK probability per grant attempt, in `[0, 1]`.
    pub rate: f64,
    /// Retries allowed per request before the grant is forced.
    pub max_retries: u32,
    /// Cycles a NACKed request waits before re-arbitrating.
    pub backoff_cycles: u64,
}

/// A complete, seeded description of which faults to inject where.
///
/// `None` at a site means that site runs the exact unperturbed code path.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    /// Master seed; each site derives its own stream from it.
    pub seed: u64,
    /// Bus grant delays (arbitration takes longer than one cycle).
    pub bus_grant: Option<FaultSpec>,
    /// Bus burst NACKs with bounded retry/backoff.
    pub bus_nack: Option<NackSpec>,
    /// DRAM latency spikes (e.g. refresh collisions).
    pub dram: Option<FaultSpec>,
    /// TLB page-fault walks: a miss occasionally pays a long walk.
    pub tlb: Option<FaultSpec>,
    /// Flush-contention stalls: a flush chunk occasionally stalls.
    pub flush: Option<FaultSpec>,
}

impl FaultPlan {
    /// The empty plan: no injection sites, bit-identical results.
    #[must_use]
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether no site is configured (the zero-overhead off switch).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bus_grant.is_none()
            && self.bus_nack.is_none()
            && self.dram.is_none()
            && self.tlb.is_none()
            && self.flush.is_none()
    }

    /// A modest default plan exercising every site, parameterized only by
    /// the seed. This is what `simulate --faults <seed>` runs.
    #[must_use]
    pub fn from_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            bus_grant: Some(FaultSpec {
                rate: 0.02,
                max_extra: 8,
            }),
            bus_nack: Some(NackSpec {
                rate: 0.01,
                max_retries: 4,
                backoff_cycles: 16,
            }),
            dram: Some(FaultSpec {
                rate: 0.02,
                max_extra: 12,
            }),
            tlb: Some(FaultSpec {
                rate: 0.01,
                max_extra: 40,
            }),
            flush: Some(FaultSpec {
                rate: 0.02,
                max_extra: 8,
            }),
        }
    }

    /// Statically validate the plan: rates in `[0, 1]`, magnitudes
    /// non-zero and bounded, and at least one effective site.
    ///
    /// Emits `L0240` (invalid rate), `L0241` (zero or unbounded
    /// magnitude), and `L0242` (warning: the plan injects nothing).
    #[must_use]
    pub fn validate(&self) -> Report {
        let mut r = Report::new();
        let check_rate = |r: &mut Report, field: &'static str, rate: f64| {
            if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
                r.push(
                    Diagnostic::error("L0240", format!("injection rate {rate} outside [0, 1]"))
                        .at(Locus::Field(field)),
                );
            }
        };
        let check_extra = |r: &mut Report, field: &'static str, max_extra: u64| {
            if max_extra == 0 {
                r.push(
                    Diagnostic::error("L0241", "zero-cycle fault magnitude injects nothing")
                        .at(Locus::Field(field)),
                );
            } else if max_extra > MAX_FAULT_MAGNITUDE {
                r.push(
                    Diagnostic::error(
                        "L0241",
                        format!(
                            "fault magnitude {max_extra} exceeds bound {MAX_FAULT_MAGNITUDE}; \
                             unbounded delays defeat the termination guarantee"
                        ),
                    )
                    .at(Locus::Field(field)),
                );
            }
        };
        if let Some(s) = self.bus_grant {
            check_rate(&mut r, "faults.bus_grant.rate", s.rate);
            check_extra(&mut r, "faults.bus_grant.max_extra", s.max_extra);
        }
        if let Some(s) = self.bus_nack {
            check_rate(&mut r, "faults.bus_nack.rate", s.rate);
            check_extra(&mut r, "faults.bus_nack.backoff_cycles", s.backoff_cycles);
            if s.max_retries > MAX_NACK_RETRIES {
                r.push(
                    Diagnostic::error(
                        "L0241",
                        format!(
                            "{} NACK retries exceed bound {MAX_NACK_RETRIES}",
                            s.max_retries
                        ),
                    )
                    .at(Locus::Field("faults.bus_nack.max_retries")),
                );
            }
        }
        if let Some(s) = self.dram {
            check_rate(&mut r, "faults.dram.rate", s.rate);
            check_extra(&mut r, "faults.dram.max_extra", s.max_extra);
        }
        if let Some(s) = self.tlb {
            check_rate(&mut r, "faults.tlb.rate", s.rate);
            check_extra(&mut r, "faults.tlb.max_extra", s.max_extra);
        }
        if let Some(s) = self.flush {
            check_rate(&mut r, "faults.flush.rate", s.rate);
            check_extra(&mut r, "faults.flush.max_extra", s.max_extra);
        }
        let rates = [
            self.bus_grant.map(|s| s.rate),
            self.bus_nack.map(|s| s.rate),
            self.dram.map(|s| s.rate),
            self.tlb.map(|s| s.rate),
            self.flush.map(|s| s.rate),
        ];
        if rates.iter().flatten().all(|&rate| rate <= 0.0) {
            r.push(Diagnostic::warning(
                "L0242",
                "fault plan injects nothing (no site with a positive rate)",
            ));
        }
        r
    }

    /// Render as the line-oriented `aladdin fault plan v1` text format.
    #[must_use]
    pub fn to_text(&self) -> String {
        use fmt::Write;
        let mut out = String::from("# aladdin fault plan v1\n");
        let _ = writeln!(out, "seed {}", self.seed);
        if let Some(s) = self.bus_grant {
            let _ = writeln!(out, "bus-grant rate {} max-extra {}", s.rate, s.max_extra);
        }
        if let Some(s) = self.bus_nack {
            let _ = writeln!(
                out,
                "bus-nack rate {} max-retries {} backoff {}",
                s.rate, s.max_retries, s.backoff_cycles
            );
        }
        if let Some(s) = self.dram {
            let _ = writeln!(out, "dram rate {} max-extra {}", s.rate, s.max_extra);
        }
        if let Some(s) = self.tlb {
            let _ = writeln!(out, "tlb rate {} max-extra {}", s.rate, s.max_extra);
        }
        if let Some(s) = self.flush {
            let _ = writeln!(out, "flush rate {} max-extra {}", s.rate, s.max_extra);
        }
        out
    }

    /// Parse the text format written by [`FaultPlan::to_text`]. Blank
    /// lines and `#` comments are ignored; unknown targets or malformed
    /// lines are rejected.
    ///
    /// # Errors
    ///
    /// Returns an `L0243` diagnostic naming the first offending line.
    pub fn from_text(text: &str) -> Result<Self, Diagnostic> {
        fn bad(lineno: usize, why: &str) -> Diagnostic {
            Diagnostic::error("L0243", format!("fault plan line {lineno}: {why}"))
        }
        fn field<T: std::str::FromStr>(
            toks: &[&str],
            at: usize,
            key: &str,
            lineno: usize,
        ) -> Result<T, Diagnostic> {
            if toks.get(at).copied() != Some(key) {
                return Err(bad(lineno, &format!("expected `{key} <value>`")));
            }
            let raw = toks
                .get(at + 1)
                .ok_or_else(|| bad(lineno, &format!("`{key}` missing its value")))?;
            raw.parse()
                .map_err(|_| bad(lineno, &format!("`{key}` value {raw:?} is not a number")))
        }

        let mut plan = FaultPlan::none();
        for (i, raw) in text.lines().enumerate() {
            let lineno = i + 1;
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let toks: Vec<&str> = line.split_whitespace().collect();
            match toks[0] {
                "seed" => plan.seed = field(&toks, 0, "seed", lineno)?,
                site @ ("bus-grant" | "dram" | "tlb" | "flush") => {
                    if toks.len() != 5 {
                        return Err(bad(lineno, "expected `rate <p> max-extra <cycles>`"));
                    }
                    let spec = FaultSpec {
                        rate: field(&toks, 1, "rate", lineno)?,
                        max_extra: field(&toks, 3, "max-extra", lineno)?,
                    };
                    match site {
                        "bus-grant" => plan.bus_grant = Some(spec),
                        "dram" => plan.dram = Some(spec),
                        "tlb" => plan.tlb = Some(spec),
                        _ => plan.flush = Some(spec),
                    }
                }
                "bus-nack" => {
                    if toks.len() != 7 {
                        return Err(bad(
                            lineno,
                            "expected `rate <p> max-retries <n> backoff <cycles>`",
                        ));
                    }
                    plan.bus_nack = Some(NackSpec {
                        rate: field(&toks, 1, "rate", lineno)?,
                        max_retries: field(&toks, 3, "max-retries", lineno)?,
                        backoff_cycles: field(&toks, 5, "backoff", lineno)?,
                    });
                }
                other => {
                    return Err(bad(lineno, &format!("unknown fault target {other:?}")));
                }
            }
        }
        Ok(plan)
    }

    /// The seeded bus grant-delay injector, if configured.
    #[must_use]
    pub fn grant_injector(&self) -> Option<FaultInjector> {
        self.bus_grant
            .map(|s| FaultInjector::new(s, self.seed, salt::BUS_GRANT))
    }

    /// The seeded bus burst-NACK injector, if configured.
    #[must_use]
    pub fn nack_injector(&self) -> Option<NackInjector> {
        self.bus_nack
            .map(|s| NackInjector::new(s, self.seed, salt::BUS_NACK))
    }

    /// The seeded DRAM latency-spike injector, if configured.
    #[must_use]
    pub fn dram_injector(&self) -> Option<FaultInjector> {
        self.dram
            .map(|s| FaultInjector::new(s, self.seed, salt::DRAM))
    }

    /// The seeded TLB page-fault-walk injector, if configured.
    #[must_use]
    pub fn tlb_injector(&self) -> Option<FaultInjector> {
        self.tlb
            .map(|s| FaultInjector::new(s, self.seed, salt::TLB))
    }

    /// The seeded flush-contention injector, if configured.
    #[must_use]
    pub fn flush_injector(&self) -> Option<FaultInjector> {
        self.flush
            .map(|s| FaultInjector::new(s, self.seed, salt::FLUSH))
    }
}

/// One site's live injection state: a private seeded stream plus the spec.
///
/// Constructed fresh per simulation run (never shared across runs or
/// threads), so the draw sequence depends only on `(seed, salt)` and the
/// order of opportunities at that one site.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SmallRng,
    rate: f64,
    max_extra: u64,
    injected: u64,
}

impl FaultInjector {
    /// A new injector for `spec`, drawing from `seed ^ site_salt`.
    #[must_use]
    pub fn new(spec: FaultSpec, seed: u64, site_salt: u64) -> Self {
        FaultInjector {
            rng: SmallRng::seed_from_u64(seed ^ site_salt),
            rate: spec.rate,
            max_extra: spec.max_extra,
            injected: 0,
        }
    }

    /// Extra cycles to add at this opportunity: `0` (no fault) or
    /// `1..=max_extra`. Always bounded, so termination is preserved.
    pub fn extra_cycles(&mut self) -> u64 {
        if self.rate > 0.0 && self.max_extra > 0 && self.rng.gen_bool(self.rate) {
            self.injected += 1;
            self.rng.gen_range(1..=self.max_extra)
        } else {
            0
        }
    }

    /// How many faults this injector has fired so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// Live bus burst-NACK state for one simulation run.
#[derive(Debug, Clone)]
pub struct NackInjector {
    rng: SmallRng,
    rate: f64,
    max_retries: u32,
    backoff_cycles: u64,
    injected: u64,
}

impl NackInjector {
    /// A new injector for `spec`, drawing from `seed ^ site_salt`.
    #[must_use]
    pub fn new(spec: NackSpec, seed: u64, site_salt: u64) -> Self {
        NackInjector {
            rng: SmallRng::seed_from_u64(seed ^ site_salt),
            rate: spec.rate,
            max_retries: spec.max_retries,
            backoff_cycles: spec.backoff_cycles,
            injected: 0,
        }
    }

    /// Whether to NACK a grant attempt for a request that has already been
    /// retried `retries_so_far` times. Returns the backoff (in cycles,
    /// at least 1) to wait before re-arbitrating, or `None` to grant.
    /// Once `max_retries` is reached the grant is always forced, so a
    /// request can never starve.
    pub fn nack(&mut self, retries_so_far: u32) -> Option<u64> {
        if retries_so_far >= self.max_retries {
            return None;
        }
        if self.rate > 0.0 && self.rng.gen_bool(self.rate) {
            self.injected += 1;
            Some(self.backoff_cycles.max(1))
        } else {
            None
        }
    }

    /// How many NACKs this injector has fired so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }
}

/// Guard limits for a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Hard ceiling on the simulated cycle count (`None` = unlimited).
    pub max_cycles: Option<u64>,
    /// Consecutive cycles without any forward progress before the run is
    /// declared deadlocked.
    pub no_progress_cycles: u64,
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            max_cycles: None,
            no_progress_cycles: 4_000_000,
        }
    }
}

/// Everything the scheduler knew at the moment it declared a deadlock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeadlockSnapshot {
    /// Cycle at which the deadlock was declared.
    pub cycle: u64,
    /// Nodes retired so far.
    pub completed: usize,
    /// Nodes in the trace.
    pub total: usize,
    /// Consecutive no-progress cycles observed.
    pub idle_cycles: u64,
    /// Compute nodes sitting in the ready queue.
    pub ready_compute: usize,
    /// Memory nodes sitting in the ready queue.
    pub ready_mem: usize,
    /// Pending compute retirements as `(due_cycle, count)`, soonest first.
    pub wheel: Vec<(u64, u32)>,
    /// Buffered future memory completions as `(due_cycle, count)`.
    pub mem_wheel: Vec<(u64, u32)>,
    /// Memory operations issued but not yet completed.
    pub mem_inflight: usize,
    /// Free-form forensic notes from outer layers (bus queues, DMA
    /// descriptor state, …).
    pub notes: Vec<String>,
}

fn wheel_str(wheel: &[(u64, u32)]) -> String {
    if wheel.is_empty() {
        return "empty".to_owned();
    }
    let entries: Vec<String> = wheel
        .iter()
        .map(|&(cycle, count)| format!("{count}@{cycle}"))
        .collect();
    entries.join(", ")
}

/// A typed simulation failure: what a fallible flow returns instead of
/// panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The scheduler made no forward progress for the watchdog's
    /// no-progress window.
    Deadlock(Box<DeadlockSnapshot>),
    /// The simulation ran past the watchdog's hard cycle ceiling.
    WatchdogExpired {
        /// The configured ceiling that was crossed.
        limit: u64,
        /// Cycle at which the guard fired.
        cycle: u64,
        /// Nodes retired so far.
        completed: usize,
        /// Nodes in the trace.
        total: usize,
        /// Free-form forensic notes from outer layers.
        notes: Vec<String>,
    },
    /// A pre-existing typed diagnostic (configuration or runtime), wrapped
    /// so fallible flows have one error type.
    Diag(Diagnostic),
}

impl SimError {
    /// The stable diagnostic code for this error.
    #[must_use]
    pub fn code(&self) -> &'static str {
        match self {
            SimError::Deadlock(_) => "L0232",
            SimError::WatchdogExpired { .. } => "L0233",
            SimError::Diag(d) => d.code,
        }
    }

    /// Attach a forensic note (bus queue depths, DMA descriptor state, …).
    /// No-op for wrapped diagnostics, which carry their own context.
    pub fn push_note(&mut self, note: String) {
        match self {
            SimError::Deadlock(s) => s.notes.push(note),
            SimError::WatchdogExpired { notes, .. } => notes.push(note),
            SimError::Diag(_) => {}
        }
    }

    /// Render as a [`Report`]: one primary error diagnostic plus info
    /// diagnostics for each forensic detail. The JSON rendering of this
    /// report is pinned by a golden test.
    #[must_use]
    pub fn to_report(&self) -> Report {
        let mut r = Report::new();
        match self {
            SimError::Deadlock(s) => {
                r.push(Diagnostic::error(
                    "L0232",
                    format!(
                        "scheduler deadlock at cycle {}: {}/{} nodes done after {} idle cycles",
                        s.cycle, s.completed, s.total, s.idle_cycles
                    ),
                ));
                r.push(Diagnostic::info(
                    "L0232",
                    format!(
                        "ready nodes: {} compute, {} memory; {} memory op(s) in flight",
                        s.ready_compute, s.ready_mem, s.mem_inflight
                    ),
                ));
                r.push(Diagnostic::info(
                    "L0232",
                    format!(
                        "retire wheel: {}; memory wheel: {}",
                        wheel_str(&s.wheel),
                        wheel_str(&s.mem_wheel)
                    ),
                ));
                for note in &s.notes {
                    r.push(Diagnostic::info("L0232", note.clone()));
                }
            }
            SimError::WatchdogExpired {
                limit,
                cycle,
                completed,
                total,
                notes,
            } => {
                r.push(Diagnostic::error(
                    "L0233",
                    format!(
                        "watchdog expired: simulation passed {limit} cycles at cycle {cycle} \
                         with {completed}/{total} nodes done"
                    ),
                ));
                for note in notes {
                    r.push(Diagnostic::info("L0233", note.clone()));
                }
            }
            SimError::Diag(d) => r.push(d.clone()),
        }
        r
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock(s) => write!(
                f,
                "scheduler deadlock at cycle {}: {}/{} nodes done after {} idle cycles",
                s.cycle, s.completed, s.total, s.idle_cycles
            ),
            SimError::WatchdogExpired {
                limit,
                cycle,
                completed,
                total,
                ..
            } => write!(
                f,
                "watchdog expired: simulation passed {limit} cycles at cycle {cycle} \
                 with {completed}/{total} nodes done"
            ),
            SimError::Diag(d) => d.fmt(f),
        }
    }
}

impl std::error::Error for SimError {}

impl From<Diagnostic> for SimError {
    fn from(d: Diagnostic) -> Self {
        SimError::Diag(d)
    }
}

/// The fault plan and watchdog a fallible simulation runs under.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SimHarness {
    /// Which faults to inject.
    pub plan: FaultPlan,
    /// Guard limits.
    pub watchdog: Watchdog,
}

impl SimHarness {
    /// The default modest plan for `seed` under the default watchdog.
    #[must_use]
    pub fn with_seed(seed: u64) -> Self {
        SimHarness {
            plan: FaultPlan::from_seed(seed),
            watchdog: Watchdog::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty_and_validates_with_a_warning() {
        let plan = FaultPlan::none();
        assert!(plan.is_empty());
        let r = plan.validate();
        assert!(!r.has_errors());
        assert!(r.has_code("L0242"));
        assert!(plan.grant_injector().is_none());
        assert!(plan.nack_injector().is_none());
    }

    #[test]
    fn seeded_plan_validates_clean() {
        let r = FaultPlan::from_seed(7).validate();
        assert!(r.is_clean(), "{}", r.to_human());
    }

    #[test]
    fn validation_rejects_bad_rates_and_magnitudes() {
        let mut plan = FaultPlan::from_seed(1);
        plan.bus_grant = Some(FaultSpec {
            rate: 2.0,
            max_extra: 8,
        });
        plan.dram = Some(FaultSpec {
            rate: 0.1,
            max_extra: 0,
        });
        plan.tlb = Some(FaultSpec {
            rate: 0.1,
            max_extra: MAX_FAULT_MAGNITUDE + 1,
        });
        plan.bus_nack = Some(NackSpec {
            rate: f64::NAN,
            max_retries: MAX_NACK_RETRIES + 1,
            backoff_cycles: 16,
        });
        let r = plan.validate();
        assert!(r.has_errors());
        assert!(r.has_code("L0240"));
        assert!(r.has_code("L0241"));
        assert_eq!(r.count(aladdin_ir::Severity::Error), 5);
    }

    #[test]
    fn zero_rate_plan_warns_it_injects_nothing() {
        let mut plan = FaultPlan::none();
        plan.flush = Some(FaultSpec {
            rate: 0.0,
            max_extra: 4,
        });
        let r = plan.validate();
        assert!(!r.has_errors());
        assert!(r.has_code("L0242"));
    }

    #[test]
    fn text_round_trips() {
        let plan = FaultPlan::from_seed(42);
        let text = plan.to_text();
        let parsed = FaultPlan::from_text(&text).unwrap();
        assert_eq!(parsed, plan);

        let partial = FaultPlan {
            seed: 9,
            dram: Some(FaultSpec {
                rate: 0.25,
                max_extra: 100,
            }),
            ..FaultPlan::none()
        };
        assert_eq!(FaultPlan::from_text(&partial.to_text()).unwrap(), partial);
    }

    #[test]
    fn malformed_plans_are_l0243() {
        for text in [
            "warp-core rate 0.5 max-extra 4",
            "dram rate 0.5",
            "dram rate many max-extra 4",
            "bus-nack rate 0.5 max-retries 4",
            "seed",
        ] {
            let err = FaultPlan::from_text(text).unwrap_err();
            assert_eq!(err.code, "L0243", "{text:?} -> {err}");
        }
        // Comments and blank lines are fine.
        let plan = FaultPlan::from_text("# hi\n\n  seed 3\n").unwrap();
        assert_eq!(plan.seed, 3);
        assert!(plan.is_empty());
    }

    #[test]
    fn injector_is_deterministic_and_bounded() {
        let spec = FaultSpec {
            rate: 0.5,
            max_extra: 9,
        };
        let mut a = FaultInjector::new(spec, 11, salt::DRAM);
        let mut b = FaultInjector::new(spec, 11, salt::DRAM);
        let mut fired = 0u32;
        for _ in 0..2000 {
            let x = a.extra_cycles();
            assert_eq!(x, b.extra_cycles());
            assert!(x <= 9);
            if x > 0 {
                fired += 1;
                assert!(x >= 1);
            }
        }
        assert!(fired > 500, "rate 0.5 should fire often, got {fired}");
        assert_eq!(a.injected(), u64::from(fired));

        // Distinct sites decorrelate even with the same seed.
        let mut c = FaultInjector::new(spec, 11, salt::TLB);
        let differs = (0..64).any(|_| {
            let x = FaultInjector::new(spec, 11, salt::DRAM).extra_cycles();
            x != c.extra_cycles()
        });
        assert!(differs);
    }

    #[test]
    fn zero_rate_injector_never_fires() {
        let mut inj = FaultInjector::new(
            FaultSpec {
                rate: 0.0,
                max_extra: 9,
            },
            1,
            salt::FLUSH,
        );
        for _ in 0..100 {
            assert_eq!(inj.extra_cycles(), 0);
        }
        assert_eq!(inj.injected(), 0);
    }

    #[test]
    fn nacks_stop_after_max_retries() {
        let spec = NackSpec {
            rate: 1.0,
            max_retries: 3,
            backoff_cycles: 0,
        };
        let mut inj = NackInjector::new(spec, 5, salt::BUS_NACK);
        for retries in 0..3 {
            // Backoff is clamped to at least one cycle so a NACKed request
            // cannot re-arbitrate in the same cycle forever.
            assert_eq!(inj.nack(retries), Some(1));
        }
        assert_eq!(inj.nack(3), None, "grant is forced after max retries");
        assert_eq!(inj.injected(), 3);
    }

    #[test]
    fn watchdog_default_matches_legacy_guard() {
        let wd = Watchdog::default();
        assert_eq!(wd.max_cycles, None);
        assert_eq!(wd.no_progress_cycles, 4_000_000);
    }

    #[test]
    fn sim_error_codes_and_notes() {
        let mut e = SimError::Deadlock(Box::new(DeadlockSnapshot {
            cycle: 10,
            completed: 1,
            total: 2,
            idle_cycles: 4,
            ready_compute: 0,
            ready_mem: 1,
            wheel: vec![],
            mem_wheel: vec![],
            mem_inflight: 1,
            notes: vec![],
        }));
        assert_eq!(e.code(), "L0232");
        e.push_note("bus: 3 queued".to_owned());
        assert!(e.to_report().to_human().contains("bus: 3 queued"));
        assert!(e.to_string().contains("scheduler deadlock at cycle 10"));

        let w = SimError::WatchdogExpired {
            limit: 100,
            cycle: 101,
            completed: 0,
            total: 4,
            notes: vec![],
        };
        assert_eq!(w.code(), "L0233");
        assert!(w.to_string().contains("watchdog expired"));

        let d = SimError::from(Diagnostic::error("L0230", "stalled"));
        assert_eq!(d.code(), "L0230");
    }

    #[test]
    fn deadlock_report_json_is_golden() {
        let snap = DeadlockSnapshot {
            cycle: 4_000_123,
            completed: 3,
            total: 5,
            idle_cycles: 4_000_000,
            ready_compute: 0,
            ready_mem: 1,
            wheel: vec![],
            mem_wheel: vec![(4_000_200, 2)],
            mem_inflight: 2,
            notes: vec!["bus: 1 queued request(s)".to_owned()],
        };
        let json = SimError::Deadlock(Box::new(snap)).to_report().to_json();
        assert_eq!(
            json,
            "{\"diagnostics\":[\
             {\"code\":\"L0232\",\"severity\":\"error\",\"locus\":null,\
             \"message\":\"scheduler deadlock at cycle 4000123: 3/5 nodes done \
             after 4000000 idle cycles\"},\
             {\"code\":\"L0232\",\"severity\":\"info\",\"locus\":null,\
             \"message\":\"ready nodes: 0 compute, 1 memory; 2 memory op(s) in flight\"},\
             {\"code\":\"L0232\",\"severity\":\"info\",\"locus\":null,\
             \"message\":\"retire wheel: empty; memory wheel: 2@4000200\"},\
             {\"code\":\"L0232\",\"severity\":\"info\",\"locus\":null,\
             \"message\":\"bus: 1 queued request(s)\"}],\
             \"errors\":1,\"warnings\":0,\"infos\":3}"
        );
    }

    #[test]
    fn harness_defaults() {
        let h = SimHarness::default();
        assert!(h.plan.is_empty());
        let s = SimHarness::with_seed(3);
        assert!(!s.plan.is_empty());
        assert_eq!(s.plan.seed, 3);
    }
}
