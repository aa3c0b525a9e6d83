//! Set-associative, write-back accelerator cache with MSHRs, MOESI line
//! states, and a strided hardware prefetcher.
//!
//! The cache is the "pull-based" alternative to scratchpad+DMA (Section
//! IV-D): data arrives on demand at line granularity, misses are overlapped
//! with independent computation (hit-under-miss through MSHRs), and
//! coherence is handled in hardware so the CPU-side flush/invalidate of the
//! DMA flow disappears.
//!
//! The cache does not own the system bus (it is shared with the DMA engine
//! and other masters), so fills and writebacks are exchanged through an
//! outbox/inbox pair: [`Cache::take_bus_requests`] returns line transactions
//! for the SoC to place on the bus, and [`Cache::bus_completed`] delivers
//! fill completions back.

use aladdin_ir::{Diagnostic, Locus};

use crate::bus::Token;

/// Read or write, from the datapath's perspective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Datapath load.
    Read,
    /// Datapath store.
    Write,
}

/// MOESI coherence state of a resident line.
///
/// With a single accelerator cache per address region the full protocol
/// never exercises `Owned`/`Shared` on its own; those states are reachable
/// through [`Cache::snoop_shared`], which models a sharer appearing (e.g.
/// the CPU reading the accelerator's output through coherence).
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

/// Store handling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WritePolicy {
    /// Write-back, write-allocate: stores dirty the line; dirty victims
    /// are written back on eviction (the paper's configuration).
    #[default]
    WriteBack,
    /// Write-through, no-allocate: every store is forwarded to memory at
    /// access granularity; lines never become dirty and store misses do
    /// not allocate.
    WriteThrough,
}

/// Strided prefetcher configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PrefetcherConfig {
    /// Master enable (the paper's parameter table lists "Hardware
    /// prefetchers: Strided").
    pub enabled: bool,
    /// Number of independent streams tracked.
    pub streams: usize,
    /// How many strides ahead to prefetch once a stream locks.
    pub degree: u32,
}

impl Default for PrefetcherConfig {
    fn default() -> Self {
        PrefetcherConfig {
            enabled: true,
            streams: 4,
            degree: 2,
        }
    }
}

/// Cache geometry and timing configuration.
///
/// Defaults sit in the middle of the paper's sweep (Figure 3 table):
/// 4 KB, 32 B lines, 4-way, 2 ports, 16 MSHRs, strided prefetcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub assoc: u32,
    /// Accesses accepted per cycle.
    pub ports: u32,
    /// Miss-status holding registers (outstanding misses).
    pub mshrs: usize,
    /// Hit latency in cycles.
    pub hit_latency: u64,
    /// Store handling policy.
    pub write_policy: WritePolicy,
    /// Prefetcher settings.
    pub prefetch: PrefetcherConfig,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            size_bytes: 4 * 1024,
            line_bytes: 32,
            assoc: 4,
            ports: 2,
            mshrs: 16,
            hit_latency: 1,
            write_policy: WritePolicy::default(),
            prefetch: PrefetcherConfig::default(),
        }
    }
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Errors
    ///
    /// Returns an `L0211` diagnostic — the same code `aladdin-lint`'s
    /// configuration pass emits statically — if the geometry is
    /// inconsistent: zero sizes, capacity not divisible into
    /// `assoc`-way sets of `line_bytes` lines, or a non-power-of-two
    /// set count.
    pub fn try_num_sets(&self) -> Result<usize, Diagnostic> {
        let geom = |msg: String| Diagnostic::error("L0211", msg).at(Locus::Field("cache"));
        if self.line_bytes == 0 || self.assoc == 0 || self.size_bytes == 0 {
            return Err(geom(format!(
                "cache geometry has a zero dimension: {} B, {} B lines, {}-way",
                self.size_bytes, self.line_bytes, self.assoc
            )));
        }
        let lines = self.size_bytes / u64::from(self.line_bytes);
        if !lines.is_multiple_of(u64::from(self.assoc)) {
            return Err(geom(format!(
                "cache capacity must divide into whole sets: {} lines, {}-way",
                lines, self.assoc
            )));
        }
        let sets = lines / u64::from(self.assoc);
        if !sets.is_power_of_two() {
            return Err(geom(format!(
                "set count must be a power of two, got {sets}"
            )));
        }
        Ok(sets as usize)
    }

    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent; use
    /// [`try_num_sets`](CacheConfig::try_num_sets) to handle that as a
    /// typed diagnostic instead.
    #[must_use]
    pub fn num_sets(&self) -> usize {
        self.try_num_sets().unwrap_or_else(|d| panic!("{d}"))
    }
}

/// Result of [`Cache::access`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// Hit; data available at the contained cycle.
    Hit {
        /// Completion cycle.
        at: u64,
    },
    /// Miss; the access now waits in an MSHR and completes through
    /// [`Cache::drain_completions`].
    Miss,
    /// Rejected: all ports consumed this cycle. Retry next cycle.
    NoPort,
    /// Rejected: no MSHR available. Retry next cycle.
    NoMshr,
}

/// A line-granularity transaction the cache wants to place on the bus.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheBusRequest {
    /// Line-aligned address.
    pub line_addr: u64,
    /// Transfer size (one line).
    pub bytes: u32,
    /// `true` for writebacks, `false` for fills.
    pub write: bool,
    /// `true` if this fill was initiated by the prefetcher.
    pub prefetch: bool,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand accesses that hit (including hits on prefetched lines).
    pub hits: u64,
    /// Demand accesses that started a new fill.
    pub misses: u64,
    /// Demand accesses that merged into an outstanding fill.
    pub secondary_misses: u64,
    /// Accesses rejected for lack of a port.
    pub port_rejects: u64,
    /// Accesses rejected for lack of an MSHR.
    pub mshr_rejects: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
    /// Stores forwarded directly to memory (write-through policy).
    pub writethroughs: u64,
    /// Prefetch fills issued.
    pub prefetches: u64,
    /// Prefetched lines that later served a demand access.
    pub useful_prefetches: u64,
}

impl CacheStats {
    /// Demand accesses observed (hits + misses + secondary misses).
    #[must_use]
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses + self.secondary_misses
    }

    /// Miss ratio over demand accesses.
    #[must_use]
    pub fn miss_ratio(&self) -> f64 {
        let a = self.accesses();
        if a == 0 {
            0.0
        } else {
            (self.misses + self.secondary_misses) as f64 / a as f64
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    state: MoesiState,
    lru: u64,
    prefetched: bool,
}

#[derive(Debug, Clone, Copy)]
struct Mshr {
    line_addr: u64,
    prefetch_only: bool,
}

#[derive(Debug, Clone, Copy)]
struct Stream {
    last_line: u64,
    stride: i64,
    confidence: u8,
}

/// The accelerator cache model; see the module-level documentation.
///
/// # Example
///
/// ```
/// use aladdin_mem::{AccessKind, Cache, CacheConfig, CacheOutcome};
///
/// let mut cache = Cache::new(CacheConfig::default());
/// cache.begin_cycle(0);
/// // Cold access misses and requests a line fill...
/// assert_eq!(cache.access(1, 0x1000, AccessKind::Read, 0), CacheOutcome::Miss);
/// let fill = cache.take_bus_requests().next().expect("a line fill");
/// cache.bus_completed(fill.line_addr, 25);
/// assert!(cache.drain_completions().eq([(1, 26)]));
/// // ...and the next touch of the same line hits.
/// cache.begin_cycle(30);
/// assert_eq!(
///     cache.access(2, 0x1008, AccessKind::Read, 30),
///     CacheOutcome::Hit { at: 31 }
/// );
/// ```
#[derive(Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: Vec<Vec<Line>>,
    mshrs: Vec<Mshr>,
    /// Accesses waiting on a fill, as `(line address, id, kind)`, in
    /// arrival order across every MSHR.
    waiters: Vec<(u64, u64, AccessKind)>,
    streams: Vec<Stream>,
    outbox: Vec<CacheBusRequest>,
    completions: Vec<(u64, u64)>,
    ports_used: u32,
    current_cycle: u64,
    lru_clock: u64,
    stats: CacheStats,
}

impl Cache {
    /// An empty cache.
    ///
    /// # Errors
    ///
    /// Returns the geometry diagnostic from
    /// [`CacheConfig::try_num_sets`] on an inconsistent configuration.
    pub fn try_new(cfg: CacheConfig) -> Result<Self, Diagnostic> {
        let sets = cfg.try_num_sets()?;
        Ok(Cache {
            cfg,
            sets: vec![
                vec![
                    Line {
                        tag: 0,
                        state: MoesiState::Invalid,
                        lru: 0,
                        prefetched: false,
                    };
                    cfg.assoc as usize
                ];
                sets
            ],
            mshrs: Vec::with_capacity(cfg.mshrs),
            waiters: Vec::new(),
            streams: Vec::new(),
            outbox: Vec::new(),
            completions: Vec::new(),
            ports_used: 0,
            current_cycle: 0,
            lru_clock: 0,
            stats: CacheStats::default(),
        })
    }

    /// An empty cache.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent geometry; use [`try_new`](Cache::try_new)
    /// to handle that as a typed diagnostic instead.
    #[must_use]
    pub fn new(cfg: CacheConfig) -> Self {
        Cache::try_new(cfg).unwrap_or_else(|d| panic!("{d}"))
    }

    /// Configuration this cache was built with.
    #[must_use]
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & !u64::from(self.cfg.line_bytes - 1)
    }

    fn set_index(&self, line_addr: u64) -> usize {
        ((line_addr / u64::from(self.cfg.line_bytes)) as usize) & (self.sets.len() - 1)
    }

    fn find_line(&self, line_addr: u64) -> Option<(usize, usize)> {
        let set = self.set_index(line_addr);
        self.sets[set]
            .iter()
            .position(|l| l.state.is_valid() && l.tag == line_addr)
            .map(|way| (set, way))
    }

    /// Whether the line containing `addr` is resident.
    #[must_use]
    pub fn contains(&self, addr: u64) -> bool {
        self.find_line(self.line_addr(addr)).is_some()
    }

    /// MOESI state of the line containing `addr`.
    #[must_use]
    pub fn state_of(&self, addr: u64) -> MoesiState {
        self.find_line(self.line_addr(addr))
            .map_or(MoesiState::Invalid, |(s, w)| self.sets[s][w].state)
    }

    /// Begin a new cycle: reset the per-cycle port budget.
    pub fn begin_cycle(&mut self, cycle: u64) {
        self.current_cycle = cycle;
        self.ports_used = 0;
    }

    /// Issue a demand access on behalf of datapath operation `id`.
    ///
    /// Consumes one port on anything but a structural reject. On
    /// [`CacheOutcome::Miss`] the completion is later reported by
    /// [`drain_completions`](Cache::drain_completions) tagged with `id`.
    #[inline]
    pub fn access(&mut self, id: u64, addr: u64, kind: AccessKind, cycle: u64) -> CacheOutcome {
        debug_assert_eq!(cycle, self.current_cycle, "call begin_cycle first");
        if self.ports_used >= self.cfg.ports {
            self.stats.port_rejects += 1;
            return CacheOutcome::NoPort;
        }
        self.access_with_port(id, addr, kind, cycle)
    }

    /// [`access`](Cache::access) once a port is known to be free.
    fn access_with_port(
        &mut self,
        id: u64,
        addr: u64,
        kind: AccessKind,
        cycle: u64,
    ) -> CacheOutcome {
        let line_addr = self.line_addr(addr);

        if let Some((set, way)) = self.find_line(line_addr) {
            self.ports_used += 1;
            self.lru_clock += 1;
            let line = &mut self.sets[set][way];
            line.lru = self.lru_clock;
            if line.prefetched {
                line.prefetched = false;
                self.stats.useful_prefetches += 1;
            }
            if kind == AccessKind::Write {
                match self.cfg.write_policy {
                    WritePolicy::WriteBack => line.state = MoesiState::Modified,
                    WritePolicy::WriteThrough => {
                        // Line stays clean; the store goes straight out.
                        self.outbox.push(CacheBusRequest {
                            line_addr: addr & !7,
                            bytes: 8,
                            write: true,
                            prefetch: false,
                        });
                        self.stats.writethroughs += 1;
                    }
                }
            }
            self.stats.hits += 1;
            self.train_prefetcher(line_addr);
            return CacheOutcome::Hit {
                at: cycle + self.cfg.hit_latency,
            };
        }

        // Write-through stores do not allocate: forward and complete.
        if kind == AccessKind::Write && self.cfg.write_policy == WritePolicy::WriteThrough {
            self.ports_used += 1;
            self.outbox.push(CacheBusRequest {
                line_addr: addr & !7,
                bytes: 8,
                write: true,
                prefetch: false,
            });
            self.stats.writethroughs += 1;
            return CacheOutcome::Hit {
                at: cycle + self.cfg.hit_latency,
            };
        }

        // Miss path: merge into an outstanding fill if one exists.
        if let Some(m) = self.mshrs.iter_mut().find(|m| m.line_addr == line_addr) {
            self.ports_used += 1;
            self.waiters.push((line_addr, id, kind));
            m.prefetch_only = false;
            self.stats.secondary_misses += 1;
            return CacheOutcome::Miss;
        }
        if self.mshrs.len() >= self.cfg.mshrs {
            self.stats.mshr_rejects += 1;
            return CacheOutcome::NoMshr;
        }
        self.ports_used += 1;
        self.mshrs.push(Mshr {
            line_addr,
            prefetch_only: false,
        });
        self.waiters.push((line_addr, id, kind));
        self.outbox.push(CacheBusRequest {
            line_addr,
            bytes: self.cfg.line_bytes,
            write: false,
            prefetch: false,
        });
        self.stats.misses += 1;
        self.train_prefetcher(line_addr);
        CacheOutcome::Miss
    }

    fn train_prefetcher(&mut self, line_addr: u64) {
        if !self.cfg.prefetch.enabled {
            return;
        }
        let line = (line_addr / u64::from(self.cfg.line_bytes)) as i64;
        // Match the stream whose last access is nearest this one.
        let matched = self
            .streams
            .iter_mut()
            .enumerate()
            .filter(|(_, s)| (line - s.last_line as i64).unsigned_abs() <= 16)
            .min_by_key(|(_, s)| (line - s.last_line as i64).unsigned_abs());
        let mut issue: Option<u64> = None;
        match matched {
            Some((_, s)) => {
                let delta = line - s.last_line as i64;
                if delta == 0 {
                    return;
                }
                if delta == s.stride {
                    s.confidence = s.confidence.saturating_add(1);
                } else {
                    s.stride = delta;
                    s.confidence = 0;
                }
                s.last_line = line as u64;
                if s.confidence >= 1 {
                    let target = line + s.stride * i64::from(self.cfg.prefetch.degree);
                    if target >= 0 {
                        issue = Some(target as u64 * u64::from(self.cfg.line_bytes));
                    }
                }
            }
            None => {
                if self.streams.len() >= self.cfg.prefetch.streams {
                    self.streams.remove(0);
                }
                self.streams.push(Stream {
                    last_line: line as u64,
                    stride: 0,
                    confidence: 0,
                });
            }
        }
        if let Some(pf_addr) = issue {
            self.issue_prefetch(pf_addr);
        }
    }

    fn issue_prefetch(&mut self, line_addr: u64) {
        if self.find_line(line_addr).is_some()
            || self.mshrs.iter().any(|m| m.line_addr == line_addr)
            || self.mshrs.len() >= self.cfg.mshrs
        {
            return;
        }
        self.mshrs.push(Mshr {
            line_addr,
            prefetch_only: true,
        });
        self.outbox.push(CacheBusRequest {
            line_addr,
            bytes: self.cfg.line_bytes,
            write: false,
            prefetch: true,
        });
        self.stats.prefetches += 1;
    }

    /// Take the line transactions the cache wants placed on the bus.
    pub fn take_bus_requests(&mut self) -> std::vec::Drain<'_, CacheBusRequest> {
        self.outbox.drain(..)
    }

    /// Deliver a fill completion for `line_addr` at `cycle`: installs the
    /// line (possibly evicting and writing back a victim) and completes all
    /// waiting accesses.
    pub fn bus_completed(&mut self, line_addr: u64, cycle: u64) {
        let Some(pos) = self.mshrs.iter().position(|m| m.line_addr == line_addr) else {
            return; // Stale completion (e.g. after a reset); ignore.
        };
        let mshr = self.mshrs.swap_remove(pos);
        let set = self.set_index(line_addr);
        // Victim selection: any Invalid way, else true LRU. Construction
        // guarantees assoc > 0, so the LRU scan always finds a way; the
        // `unwrap_or(0)` is unreachable rather than a hidden panic.
        let way = self.sets[set]
            .iter()
            .position(|l| !l.state.is_valid())
            .or_else(|| {
                self.sets[set]
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, l)| l.lru)
                    .map(|(way, _)| way)
            })
            .unwrap_or(0);
        let victim = self.sets[set][way];
        if victim.state.is_dirty() {
            self.outbox.push(CacheBusRequest {
                line_addr: victim.tag,
                bytes: self.cfg.line_bytes,
                write: true,
                prefetch: false,
            });
            self.stats.writebacks += 1;
        }
        // Complete this line's waiters in arrival order.
        let at = cycle + self.cfg.hit_latency;
        let mut wrote = false;
        let completions = &mut self.completions;
        self.waiters.retain(|&(line, id, kind)| {
            if line != line_addr {
                return true;
            }
            wrote |= kind == AccessKind::Write;
            completions.push((id, at));
            false
        });
        self.lru_clock += 1;
        self.sets[set][way] = Line {
            tag: line_addr,
            state: if wrote {
                MoesiState::Modified
            } else {
                MoesiState::Exclusive
            },
            lru: self.lru_clock,
            prefetched: mshr.prefetch_only,
        };
    }

    /// Take `(access id, completion cycle)` pairs for misses that finished.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, (u64, u64)> {
        self.completions.drain(..)
    }

    /// Number of outstanding MSHRs (demand + prefetch).
    #[must_use]
    pub fn outstanding_misses(&self) -> usize {
        self.mshrs.len()
    }

    /// Number of dirty lines currently resident.
    #[must_use]
    pub fn dirty_lines(&self) -> usize {
        self.sets
            .iter()
            .flatten()
            .filter(|l| l.state.is_dirty())
            .count()
    }

    /// Model an external sharer reading `addr`: M→O, E→S (dirty data is
    /// retained and supplied by this cache under MOESI).
    pub fn snoop_shared(&mut self, addr: u64) {
        if let Some((s, w)) = self.find_line(self.line_addr(addr)) {
            let line = &mut self.sets[s][w];
            line.state = match line.state {
                MoesiState::Modified => MoesiState::Owned,
                MoesiState::Exclusive => MoesiState::Shared,
                other => other,
            };
        }
    }

    /// Model an external writer invalidating `addr`.
    pub fn snoop_invalidate(&mut self, addr: u64) {
        if let Some((s, w)) = self.find_line(self.line_addr(addr)) {
            self.sets[s][w].state = MoesiState::Invalid;
        }
    }

    /// Access statistics so far.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

/// Internal helper shared with the SoC layer: maps an outstanding bus token
/// to the cache line it fills.
#[derive(Debug, Default)]
pub struct FillTracker {
    pending: Vec<(Token, u64)>,
}

impl FillTracker {
    /// An empty tracker.
    #[must_use]
    pub fn new() -> Self {
        FillTracker::default()
    }

    /// Record that bus `token` fills `line_addr`.
    pub fn insert(&mut self, token: Token, line_addr: u64) {
        self.pending.push((token, line_addr));
    }

    /// Resolve and forget a completed token.
    pub fn remove(&mut self, token: Token) -> Option<u64> {
        let pos = self.pending.iter().position(|&(t, _)| t == token)?;
        Some(self.pending.swap_remove(pos).1)
    }

    /// Outstanding fills.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether no fill is outstanding.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bad_geometry_is_a_typed_diagnostic() {
        let cfg = CacheConfig {
            size_bytes: 3072, // 96 lines / 4 ways = 24 sets: not 2^k
            ..CacheConfig::default()
        };
        assert_eq!(cfg.try_num_sets().unwrap_err().code, "L0211");
        assert_eq!(Cache::try_new(cfg).unwrap_err().code, "L0211");
        let zero = CacheConfig {
            line_bytes: 0,
            ..CacheConfig::default()
        };
        assert_eq!(zero.try_num_sets().unwrap_err().code, "L0211");
    }

    fn small_cache() -> Cache {
        Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            assoc: 2,
            ports: 2,
            mshrs: 4,
            hit_latency: 1,
            write_policy: WritePolicy::WriteBack,
            prefetch: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
        })
    }

    /// Drives a miss to completion immediately (zero-latency "bus").
    fn fill_now(c: &mut Cache, cycle: u64) {
        let reqs: Vec<_> = c.take_bus_requests().collect();
        for req in reqs {
            if !req.write {
                c.bus_completed(req.line_addr, cycle);
            }
        }
    }

    #[test]
    fn geometry() {
        let c = small_cache();
        assert_eq!(c.config().num_sets(), 4);
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        c.begin_cycle(0);
        assert_eq!(c.access(1, 0x100, AccessKind::Read, 0), CacheOutcome::Miss);
        fill_now(&mut c, 5);
        let done: Vec<_> = c.drain_completions().collect();
        assert_eq!(done, vec![(1, 6)]);
        c.begin_cycle(7);
        assert_eq!(
            c.access(2, 0x104, AccessKind::Read, 7),
            CacheOutcome::Hit { at: 8 }
        );
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn secondary_miss_merges() {
        let mut c = small_cache();
        c.begin_cycle(0);
        assert_eq!(c.access(1, 0x100, AccessKind::Read, 0), CacheOutcome::Miss);
        assert_eq!(c.access(2, 0x108, AccessKind::Read, 0), CacheOutcome::Miss);
        assert_eq!(c.take_bus_requests().len(), 1, "one fill for both");
        c.bus_completed(0x100, 9);
        let mut done: Vec<_> = c.drain_completions().collect();
        done.sort_unstable();
        assert_eq!(done, vec![(1, 10), (2, 10)]);
        assert_eq!(c.stats().secondary_misses, 1);
    }

    #[test]
    fn ports_limit_accesses_per_cycle() {
        let mut c = small_cache();
        c.begin_cycle(0);
        assert_eq!(c.access(1, 0x000, AccessKind::Read, 0), CacheOutcome::Miss);
        assert_eq!(c.access(2, 0x020, AccessKind::Read, 0), CacheOutcome::Miss);
        assert_eq!(
            c.access(3, 0x040, AccessKind::Read, 0),
            CacheOutcome::NoPort
        );
        c.begin_cycle(1);
        assert_eq!(c.access(3, 0x040, AccessKind::Read, 1), CacheOutcome::Miss);
        assert_eq!(c.stats().port_rejects, 1);
    }

    #[test]
    fn mshr_exhaustion_rejects() {
        let mut c = Cache::new(CacheConfig {
            mshrs: 2,
            ports: 8,
            prefetch: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
            ..CacheConfig::default()
        });
        c.begin_cycle(0);
        assert_eq!(c.access(1, 0x000, AccessKind::Read, 0), CacheOutcome::Miss);
        assert_eq!(c.access(2, 0x100, AccessKind::Read, 0), CacheOutcome::Miss);
        assert_eq!(
            c.access(3, 0x200, AccessKind::Read, 0),
            CacheOutcome::NoMshr
        );
        assert_eq!(c.stats().mshr_rejects, 1);
    }

    #[test]
    fn write_makes_line_modified_and_eviction_writes_back() {
        let mut c = small_cache();
        c.begin_cycle(0);
        c.access(1, 0x000, AccessKind::Write, 0);
        fill_now(&mut c, 1);
        assert_eq!(c.state_of(0x000), MoesiState::Modified);
        // Two more lines in set 0 (line 0x000 maps to set 0; with 4 sets of
        // 32 B lines, addresses 0x080*k map to set k%4... choose conflicting
        // addresses: stride = sets*line = 128).
        c.begin_cycle(2);
        c.access(2, 0x080, AccessKind::Read, 2);
        fill_now(&mut c, 3);
        c.begin_cycle(4);
        c.access(3, 0x100, AccessKind::Read, 4);
        let reqs: Vec<_> = c.take_bus_requests().collect();
        assert_eq!(reqs.len(), 1);
        c.bus_completed(0x100, 9);
        // Victim 0x000 was Modified → a writeback must be in the outbox.
        let wb: Vec<_> = c.take_bus_requests().filter(|r| r.write).collect();
        assert_eq!(wb.len(), 1);
        assert_eq!(wb[0].line_addr, 0x000);
        assert_eq!(c.stats().writebacks, 1);
        assert!(!c.contains(0x000));
    }

    #[test]
    fn lru_prefers_least_recent() {
        let mut c = small_cache();
        // Fill both ways of set 0.
        c.begin_cycle(0);
        c.access(1, 0x000, AccessKind::Read, 0);
        fill_now(&mut c, 0);
        c.begin_cycle(1);
        c.access(2, 0x080, AccessKind::Read, 1);
        fill_now(&mut c, 1);
        // Touch 0x000 so 0x080 becomes LRU.
        c.begin_cycle(2);
        c.access(3, 0x000, AccessKind::Read, 2);
        // New line in set 0 must evict 0x080.
        c.begin_cycle(3);
        c.access(4, 0x100, AccessKind::Read, 3);
        fill_now(&mut c, 3);
        assert!(c.contains(0x000));
        assert!(!c.contains(0x080));
        assert!(c.contains(0x100));
    }

    #[test]
    fn hit_under_miss() {
        let mut c = small_cache();
        c.begin_cycle(0);
        c.access(1, 0x000, AccessKind::Read, 0);
        fill_now(&mut c, 0);
        c.begin_cycle(1);
        // One outstanding miss...
        assert_eq!(c.access(2, 0x100, AccessKind::Read, 1), CacheOutcome::Miss);
        // ...must not block an independent hit in the same cycle.
        assert_eq!(
            c.access(3, 0x004, AccessKind::Read, 1),
            CacheOutcome::Hit { at: 2 }
        );
        assert_eq!(c.outstanding_misses(), 1);
    }

    #[test]
    fn moesi_snoops() {
        let mut c = small_cache();
        c.begin_cycle(0);
        c.access(1, 0x000, AccessKind::Write, 0);
        fill_now(&mut c, 0);
        assert_eq!(c.state_of(0x000), MoesiState::Modified);
        c.snoop_shared(0x000);
        assert_eq!(c.state_of(0x000), MoesiState::Owned);
        assert!(c.state_of(0x000).is_dirty());
        c.begin_cycle(1);
        c.access(2, 0x080, AccessKind::Read, 1);
        fill_now(&mut c, 1);
        c.snoop_shared(0x080);
        assert_eq!(c.state_of(0x080), MoesiState::Shared);
        c.snoop_invalidate(0x080);
        assert_eq!(c.state_of(0x080), MoesiState::Invalid);
        assert!(!c.contains(0x080));
    }

    #[test]
    fn strided_prefetcher_issues_and_is_useful() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 4096,
            line_bytes: 32,
            assoc: 4,
            ports: 4,
            mshrs: 16,
            hit_latency: 1,
            write_policy: WritePolicy::WriteBack,
            prefetch: PrefetcherConfig::default(),
        });
        // Stream through lines 0,1,2,...: after the stride locks, later
        // lines should already be resident (or in flight) when accessed.
        let mut id = 0u64;
        for (cycle, line) in (0u64..24).enumerate() {
            let cycle = cycle as u64;
            c.begin_cycle(cycle);
            id += 1;
            let _ = c.access(id, line * 32, AccessKind::Read, cycle);
            fill_now(&mut c, cycle);
            let _ = c.drain_completions();
        }
        let s = c.stats();
        assert!(s.prefetches > 0, "prefetcher should fire: {s:?}");
        assert!(
            s.useful_prefetches > 0,
            "prefetches should be useful: {s:?}"
        );
        assert!(
            s.hits > 0,
            "later stream accesses should hit prefetched lines: {s:?}"
        );
    }

    #[test]
    fn write_through_stores_forward_and_never_dirty() {
        let mut c = Cache::new(CacheConfig {
            write_policy: WritePolicy::WriteThrough,
            prefetch: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
            ..CacheConfig::default()
        });
        // Store miss: forwarded, not allocated.
        c.begin_cycle(0);
        assert!(matches!(
            c.access(1, 0x100, AccessKind::Write, 0),
            CacheOutcome::Hit { .. }
        ));
        assert!(!c.contains(0x100), "write-through must not allocate");
        let reqs: Vec<_> = c.take_bus_requests().collect();
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0].write);
        assert_eq!(reqs[0].bytes, 8);
        // Read-allocate the line, then store to it: stays clean.
        c.begin_cycle(1);
        let _ = c.access(2, 0x100, AccessKind::Read, 1);
        let reqs: Vec<_> = c.take_bus_requests().collect();
        for r in reqs {
            if !r.write {
                c.bus_completed(r.line_addr, 1);
            }
        }
        let _ = c.drain_completions();
        c.begin_cycle(2);
        let _ = c.access(3, 0x100, AccessKind::Write, 2);
        assert_eq!(c.state_of(0x100), MoesiState::Exclusive, "line stays clean");
        assert_eq!(c.dirty_lines(), 0);
        assert_eq!(c.stats().writethroughs, 2);
    }

    #[test]
    fn write_through_eviction_never_writes_back() {
        let mut c = Cache::new(CacheConfig {
            size_bytes: 256,
            line_bytes: 32,
            assoc: 2,
            ports: 2,
            mshrs: 4,
            hit_latency: 1,
            write_policy: WritePolicy::WriteThrough,
            prefetch: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
        });
        // Read-allocate then write three conflicting lines (set 0): the
        // evictions must not produce line writebacks.
        for (i, addr) in [0x000u64, 0x080, 0x100].iter().enumerate() {
            let cycle = i as u64;
            c.begin_cycle(cycle);
            let _ = c.access(i as u64 * 2, *addr, AccessKind::Read, cycle);
            let reqs: Vec<_> = c.take_bus_requests().collect();
            for r in reqs {
                if !r.write {
                    c.bus_completed(r.line_addr, cycle);
                }
            }
            let _ = c.drain_completions();
            c.begin_cycle(cycle + 100);
            let _ = c.access(i as u64 * 2 + 1, *addr, AccessKind::Write, cycle + 100);
        }
        assert_eq!(c.stats().writebacks, 0);
        assert_eq!(c.stats().writethroughs, 3);
    }

    #[test]
    fn fill_tracker_roundtrip() {
        let mut t = FillTracker::new();
        assert!(t.is_empty());
        t.insert(7, 0x1000);
        t.insert(9, 0x2000);
        assert_eq!(t.len(), 2);
        assert_eq!(t.remove(7), Some(0x1000));
        assert_eq!(t.remove(7), None);
        assert_eq!(t.remove(9), Some(0x2000));
        assert!(t.is_empty());
    }

    #[test]
    fn stats_miss_ratio() {
        let mut c = small_cache();
        c.begin_cycle(0);
        c.access(1, 0x000, AccessKind::Read, 0);
        fill_now(&mut c, 0);
        c.begin_cycle(1);
        c.access(2, 0x000, AccessKind::Read, 1);
        let s = c.stats();
        assert_eq!(s.accesses(), 2);
        assert!((s.miss_ratio() - 0.5).abs() < 1e-12);
    }
}
