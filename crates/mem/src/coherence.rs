//! The MOESI line-state machine: one pure transition function.
//!
//! [`next`] is the only place a line's coherence state changes. The
//! [`Cache`](crate::Cache) takes its write-hit upgrade, its fill state and
//! its victim writeback from it, and `aladdin-lint`'s `ProtocolChecker`
//! enumerates the same function for two sharers, so the protocol
//! `soclint protocol` certifies is the one the simulator runs.
//!
//! A single accelerator cache only ever fills alone, writes and evicts,
//! so its lines visit Invalid, Exclusive and Modified; `Owned` and
//! `Shared` arise when a second sharer snoops, which the checker models.

/// MOESI coherence state of a resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MoesiState {
    /// Dirty, exclusive.
    Modified,
    /// Dirty, shared (this cache supplies data).
    Owned,
    /// Clean, exclusive.
    Exclusive,
    /// Clean, shared.
    Shared,
    /// Not present.
    Invalid,
}

impl MoesiState {
    /// Whether the line holds valid data.
    #[must_use]
    pub fn is_valid(self) -> bool {
        self != MoesiState::Invalid
    }

    /// Whether this cache must write the line back on eviction.
    #[must_use]
    pub fn is_dirty(self) -> bool {
        matches!(self, MoesiState::Modified | MoesiState::Owned)
    }
}

/// What happens to one cache's copy of a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Event {
    /// The line is installed. `dirty`: a waiting access writes it (a
    /// write miss invalidates every other copy first). `shared`: another
    /// cache holds a valid copy.
    Fill {
        /// A store is among the accesses the fill serves.
        dirty: bool,
        /// Another cache holds the line.
        shared: bool,
    },
    /// This cache's datapath writes the line.
    LocalWrite,
    /// Another cache reads the line.
    SnoopRead,
    /// Another master writes the line (a peer's store or a DMA write):
    /// every other copy is invalidated.
    SnoopWrite,
    /// The line leaves this cache (replacement or flush).
    Evict,
}

/// What the cache must do besides changing the line's state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Action {
    /// Nothing.
    Nothing,
    /// Write the line's data back to memory.
    WriteBack,
}

/// The successor of `state` under `event`, and the action it takes.
///
/// A fill ignores `state`: the way it lands in has been evicted. A
/// snooped read makes a dirty line Owned (it keeps supplying the data)
/// and a clean one Shared. A snooped write invalidates without a
/// writeback, since the writer produces the new value. Evicting a dirty
/// line writes it back.
#[inline]
#[must_use]
pub fn next(state: MoesiState, event: Event) -> (MoesiState, Action) {
    use Action::{Nothing, WriteBack};
    use MoesiState::{Exclusive, Invalid, Modified, Owned, Shared};
    match event {
        Event::Fill { dirty: true, .. } | Event::LocalWrite => (Modified, Nothing),
        Event::Fill { shared: true, .. } => (Shared, Nothing),
        Event::Fill { shared: false, .. } => (Exclusive, Nothing),
        Event::SnoopRead => match state {
            Modified | Owned => (Owned, Nothing),
            Exclusive | Shared => (Shared, Nothing),
            Invalid => (Invalid, Nothing),
        },
        Event::SnoopWrite => (Invalid, Nothing),
        Event::Evict if state.is_dirty() => (Invalid, WriteBack),
        Event::Evict => (Invalid, Nothing),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use MoesiState::{Exclusive, Invalid, Modified, Owned, Shared};

    const STATES: [MoesiState; 5] = [Modified, Owned, Exclusive, Shared, Invalid];

    #[test]
    fn the_transition_table() {
        for st in STATES {
            assert_eq!(next(st, Event::LocalWrite), (Modified, Action::Nothing));
            assert_eq!(next(st, Event::SnoopWrite), (Invalid, Action::Nothing));
            for shared in [false, true] {
                let fill = |dirty| next(st, Event::Fill { dirty, shared });
                assert_eq!(fill(true), (Modified, Action::Nothing));
                let clean = if shared { Shared } else { Exclusive };
                assert_eq!(fill(false), (clean, Action::Nothing));
            }
            let wb = if st.is_dirty() {
                Action::WriteBack
            } else {
                Action::Nothing
            };
            assert_eq!(next(st, Event::Evict), (Invalid, wb));
        }
        let snooped: Vec<_> = STATES.map(|st| next(st, Event::SnoopRead).0).into();
        assert_eq!(snooped, [Owned, Owned, Shared, Shared, Invalid]);
    }
}
