//! Exhaustive reachability checking of the MOESI-lite coherence protocol
//! (`L03xx`).
//!
//! Every per-cache state change comes from `aladdin-mem`'s
//! [`coherence::next`], the function the simulator's cache runs: fills
//! allocate in Exclusive (Shared beside a peer, Modified when a waiter
//! wrote), writes upgrade to Modified, a snooped read demotes M→O and
//! E→S, a snooped write invalidates, and dirty victims write back. This
//! module supplies only the environment of two sharers (which one
//! snoops, the stale bits, whether memory holds the latest value, and
//! DMA writes) and enumerates *every* state a line can reach under
//! arbitrary interleavings of reads, writes, evictions, flushes and DMA
//! writes, proving the safety and liveness invariants on the full
//! reachable set:
//!
//! * `L0301` — the latest value of the line is lost (memory stale and no
//!   dirty copy anywhere): a silent dirty-line drop.
//! * `L0302` — incompatible duplicate ownership (two writable copies, or
//!   an exclusive copy coexisting with any other valid copy).
//! * `L0303` — a stuck state: some reachable state cannot reach the
//!   quiescent all-invalid/memory-fresh state by any event sequence.
//! * `L0304` — a valid but stale copy remains readable after DMA
//!   overwrites memory (missing invalidate).
//!
//! The state space is tiny (≤ 400 states), so the check is exhaustive
//! and runs in microseconds — it doubles as a unit test and as the
//! `soclint protocol` subcommand. Seeded-bug variants ([`SeededBug`])
//! override the function's output (or, for DMA, the environment) and
//! re-run the same enumeration; each must be caught, which guards the
//! checker itself against vacuity. The single-cache flows visit only
//! I/E/M: `L0252` admits one cache client per run, so no peer snoops.

use std::collections::{HashMap, HashSet, VecDeque};

use aladdin_ir::{Diagnostic, Locus, Report};
use aladdin_mem::coherence::{self, Action, Event as LineEvent};
use aladdin_mem::MoesiState;

/// Deliberately-introduced protocol defects, used to prove the checker
/// actually catches the bug classes it claims to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeededBug {
    /// A snooped read demotes Modified straight to Shared without a
    /// writeback and without retaining ownership (the classic MOESI→MESI
    /// downgrade mistake): the dirty data now exists only in clean
    /// copies, and evicting them loses it.
    SilentDropOnSnoop,
    /// DMA writes update memory without invalidating cached copies:
    /// sharers keep serving the pre-DMA value.
    SkipInvalidateOnDmaWrite,
    /// Evicting an Owned line skips the writeback (treats O like S).
    NoWritebackOnEvict,
}

impl SeededBug {
    /// All seeded bugs, for exhaustive tests.
    pub const ALL: [SeededBug; 3] = [
        SeededBug::SilentDropOnSnoop,
        SeededBug::SkipInvalidateOnDmaWrite,
        SeededBug::NoWritebackOnEvict,
    ];

    /// Stable CLI name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SeededBug::SilentDropOnSnoop => "silent-drop-on-snoop",
            SeededBug::SkipInvalidateOnDmaWrite => "skip-invalidate-on-dma-write",
            SeededBug::NoWritebackOnEvict => "no-writeback-on-evict",
        }
    }

    /// Parse a CLI name.
    #[must_use]
    pub fn by_name(name: &str) -> Option<Self> {
        SeededBug::ALL.iter().copied().find(|b| b.name() == name)
    }
}

/// One sharer's view of the line: MOESI state plus whether the copy is
/// stale (holds a value older than the line's latest write; only
/// meaningful while valid).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheView {
    st: MoesiState,
    stale: bool,
}

impl CacheView {
    const INVALID: CacheView = CacheView {
        st: MoesiState::Invalid,
        stale: false,
    };
}

/// Global state of one cached line: two sharers plus whether memory
/// holds the latest value.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LineState {
    caches: [CacheView; 2],
    mem_fresh: bool,
}

impl LineState {
    const QUIESCENT: LineState = LineState {
        caches: [CacheView::INVALID, CacheView::INVALID],
        mem_fresh: true,
    };

    fn render(&self) -> String {
        let one = |c: &CacheView| {
            let letter = match c.st {
                MoesiState::Modified => "M",
                MoesiState::Owned => "O",
                MoesiState::Exclusive => "E",
                MoesiState::Shared => "S",
                MoesiState::Invalid => "I",
            };
            format!("{letter}{}", if c.stale { "*" } else { "" })
        };
        format!(
            "{}/{} mem={}",
            one(&self.caches[0]),
            one(&self.caches[1]),
            if self.mem_fresh { "fresh" } else { "stale" }
        )
    }
}

/// The events the model interleaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// Cache `i` reads the line (fill on miss, snooping the peer).
    Read(usize),
    /// Cache `i` writes the line (upgrade/fill-for-write, invalidating
    /// the peer).
    Write(usize),
    /// Cache `i` evicts or is flushed: dirty states write back, clean
    /// states drop silently; the line becomes Invalid either way.
    Evict(usize),
    /// A DMA transfer overwrites memory (host→accelerator input copy):
    /// memory becomes fresh and all cached copies must be invalidated.
    DmaWrite,
}

const EVENTS: [Event; 7] = [
    Event::Read(0),
    Event::Read(1),
    Event::Write(0),
    Event::Write(1),
    Event::Evict(0),
    Event::Evict(1),
    Event::DmaWrite,
];

/// Result of one exhaustive enumeration.
#[derive(Debug, Clone)]
pub struct ProtocolCheck {
    /// Number of distinct reachable states.
    pub states: usize,
    /// Number of explored transitions.
    pub transitions: usize,
    /// Invariant violations (empty for the correct protocol).
    pub report: Report,
}

/// Exhaustive model checker for the MOESI-lite line state machine.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProtocolChecker {
    bug: Option<SeededBug>,
}

impl ProtocolChecker {
    /// Checker for the correct protocol.
    #[must_use]
    pub fn new() -> Self {
        ProtocolChecker { bug: None }
    }

    /// Checker for a deliberately broken variant.
    #[must_use]
    pub fn with_bug(bug: SeededBug) -> Self {
        ProtocolChecker { bug: Some(bug) }
    }

    /// One sharer's transition: [`coherence::next`], with the seeded
    /// bug's override of its output.
    fn next(&self, st: MoesiState, event: LineEvent) -> (MoesiState, Action) {
        let (succ, action) = coherence::next(st, event);
        match (self.bug, st, event) {
            // A snooped read drops Modified straight to Shared, silently
            // abandoning the dirty data.
            (Some(SeededBug::SilentDropOnSnoop), MoesiState::Modified, LineEvent::SnoopRead) => {
                (MoesiState::Shared, action)
            }
            // Evicting an Owned line skips its writeback.
            (Some(SeededBug::NoWritebackOnEvict), MoesiState::Owned, LineEvent::Evict) => {
                (succ, Action::Nothing)
            }
            _ => (succ, action),
        }
    }

    /// Apply `event` to sharer `i` of `s`. A writeback leaves memory
    /// holding whatever the copy held: the latest value unless the copy
    /// itself was stale.
    fn apply(&self, s: &mut LineState, i: usize, event: LineEvent) {
        let c = s.caches[i];
        let (st, action) = self.next(c.st, event);
        if action == Action::WriteBack {
            s.mem_fresh = !c.stale;
        }
        s.caches[i] = if st.is_valid() {
            CacheView { st, ..c }
        } else {
            CacheView::INVALID
        };
    }

    /// Apply `event` to `s`, returning the successor state (or `None`
    /// when the event is not applicable, e.g. evicting an invalid line).
    fn step(&self, s: LineState, event: Event) -> Option<LineState> {
        let mut n = s;
        match event {
            Event::Read(i) => {
                let peer = s.caches[1 - i];
                if s.caches[i].st.is_valid() {
                    return None; // hit: no state change
                }
                self.apply(&mut n, 1 - i, LineEvent::SnoopRead);
                let shared = peer.st.is_valid();
                self.apply(
                    &mut n,
                    i,
                    LineEvent::Fill {
                        dirty: false,
                        shared,
                    },
                );
                // A valid peer supplies the data, else memory does.
                n.caches[i].stale = if shared { peer.stale } else { !s.mem_fresh };
            }
            Event::Write(i) => {
                // The writer produces the new latest value: the peer is
                // invalidated, the writer's copy is not stale, memory is.
                self.apply(&mut n, 1 - i, LineEvent::SnoopWrite);
                let write = if s.caches[i].st.is_valid() {
                    LineEvent::LocalWrite
                } else {
                    LineEvent::Fill {
                        dirty: true,
                        shared: false,
                    }
                };
                self.apply(&mut n, i, write);
                n.caches[i].stale = false;
                n.mem_fresh = false;
            }
            Event::Evict(i) => {
                if !s.caches[i].st.is_valid() {
                    return None;
                }
                self.apply(&mut n, i, LineEvent::Evict);
            }
            Event::DmaWrite => {
                for i in 0..2 {
                    if self.bug == Some(SeededBug::SkipInvalidateOnDmaWrite) {
                        // No invalidate is sent: sharers keep serving the
                        // pre-DMA value.
                        n.caches[i].stale |= n.caches[i].st.is_valid();
                    } else {
                        self.apply(&mut n, i, LineEvent::SnoopWrite);
                    }
                }
                n.mem_fresh = true;
            }
        }
        Some(n)
    }

    /// Enumerate every reachable state and check all invariants.
    #[must_use]
    pub fn check(&self) -> ProtocolCheck {
        let mut report = Report::new();
        let start = LineState::QUIESCENT;
        let mut seen: HashSet<LineState> = HashSet::from([start]);
        let mut succs: HashMap<LineState, Vec<LineState>> = HashMap::new();
        let mut queue: VecDeque<LineState> = VecDeque::from([start]);
        let mut transitions = 0usize;
        while let Some(s) = queue.pop_front() {
            let mut out = Vec::new();
            for event in EVENTS {
                if let Some(n) = self.step(s, event) {
                    transitions += 1;
                    out.push(n);
                    if seen.insert(n) {
                        queue.push_back(n);
                    }
                }
            }
            succs.insert(s, out);
        }

        // Safety invariants, on every reachable state.
        let mut flagged: Vec<(&'static str, String, &'static str)> = Vec::new();
        for s in &seen {
            let [a, b] = s.caches;
            let exclusive =
                |c: MoesiState| matches!(c, MoesiState::Modified | MoesiState::Exclusive);
            if (exclusive(a.st) && b.st.is_valid()) || (exclusive(b.st) && a.st.is_valid()) {
                flagged.push(("L0302", s.render(), "duplicate ownership"));
            }
            if !s.mem_fresh && !a.st.is_dirty() && !b.st.is_dirty() {
                flagged.push((
                    "L0301",
                    s.render(),
                    "latest value lost: memory stale with no dirty copy",
                ));
            }
            if (a.st.is_valid() && a.stale) || (b.st.is_valid() && b.stale) {
                flagged.push(("L0304", s.render(), "stale copy remains readable"));
            }
        }

        // Liveness: every reachable state must be able to reach the
        // quiescent state. Compute backward reachability from quiescence
        // over the explored transition relation.
        let mut can_quiesce: HashSet<LineState> = HashSet::from([start]);
        let mut changed = true;
        while changed {
            changed = false;
            for (s, outs) in &succs {
                if !can_quiesce.contains(s) && outs.iter().any(|n| can_quiesce.contains(n)) {
                    can_quiesce.insert(*s);
                    changed = true;
                }
            }
        }
        for s in &seen {
            if !can_quiesce.contains(s) {
                flagged.push(("L0303", s.render(), "stuck: quiescence unreachable"));
            }
        }

        flagged.sort();
        flagged.dedup();
        for (code, state, what) in flagged {
            report.push(Diagnostic::error(code, what).at(Locus::State(state)));
        }
        ProtocolCheck {
            states: seen.len(),
            transitions,
            report,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn correct_protocol_has_no_violations() {
        let out = ProtocolChecker::new().check();
        assert!(out.report.is_clean(), "{}", out.report.to_human());
        // Exhaustiveness sanity: the machine visits a nontrivial state
        // set that includes every MOESI state for each sharer.
        assert!(out.states >= 10, "only {} states reached", out.states);
        assert!(out.transitions > out.states);
    }

    #[test]
    fn every_moesi_state_is_reachable() {
        // The enumeration must exercise the full protocol, not a
        // fragment: each of M, O, E, S, I occurs for sharer 0.
        let checker = ProtocolChecker::new();
        let mut seen_states: HashSet<MoesiState> = HashSet::new();
        let mut seen: HashSet<LineState> = HashSet::from([LineState::QUIESCENT]);
        let mut queue = vec![LineState::QUIESCENT];
        while let Some(s) = queue.pop() {
            seen_states.insert(s.caches[0].st);
            for e in EVENTS {
                if let Some(n) = checker.step(s, e) {
                    if seen.insert(n) {
                        queue.push(n);
                    }
                }
            }
        }
        assert_eq!(
            seen_states.len(),
            5,
            "missing MOESI states: {seen_states:?}"
        );
    }

    #[test]
    fn silent_drop_on_snoop_is_caught() {
        let out = ProtocolChecker::with_bug(SeededBug::SilentDropOnSnoop).check();
        assert!(out.report.has_code("L0301"), "{}", out.report.to_human());
    }

    #[test]
    fn skip_invalidate_on_dma_write_is_caught() {
        let out = ProtocolChecker::with_bug(SeededBug::SkipInvalidateOnDmaWrite).check();
        assert!(out.report.has_code("L0304"), "{}", out.report.to_human());
    }

    #[test]
    fn no_writeback_on_evict_is_caught() {
        let out = ProtocolChecker::with_bug(SeededBug::NoWritebackOnEvict).check();
        assert!(out.report.has_code("L0301"), "{}", out.report.to_human());
    }

    #[test]
    fn every_seeded_bug_is_caught() {
        for bug in SeededBug::ALL {
            let out = ProtocolChecker::with_bug(bug).check();
            assert!(
                out.report.has_errors(),
                "seeded bug {:?} went undetected",
                bug
            );
            assert_eq!(SeededBug::by_name(bug.name()), Some(bug));
        }
    }
}
