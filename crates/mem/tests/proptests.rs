//! Property-style tests of the memory substrate, driven by the in-tree
//! deterministic [`aladdin_rng::SmallRng`] (the workspace builds with no
//! crate registry, so `proptest` is unavailable). Each test replays many
//! seeded random stimulus sequences and asserts the invariant for each.

use aladdin_mem::{
    AccessKind, BusConfig, Cache, CacheConfig, CacheOutcome, DramConfig, Fabric, IntervalSet,
    MasterId, PrefetcherConfig, Tlb, TlbConfig, TopologyConfig,
};
use aladdin_rng::SmallRng;
use std::collections::HashSet;

fn shared_bus() -> Fabric {
    Fabric::try_new(
        BusConfig::default(),
        DramConfig::default(),
        TopologyConfig::default(),
    )
    .unwrap()
}

/// Bytes the default bus moves per cycle.
fn bus_bytes_per_cycle() -> u64 {
    u64::from(BusConfig::default().width_bits / 8)
}

/// IntervalSet agrees with a naive bitset model.
#[test]
fn interval_set_matches_bitset() {
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0xA001 + case);
        let n = rng.gen_range(0..40usize);
        let ranges: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0..200u64), rng.gen_range(0..60u64)))
            .collect();
        let mut set = IntervalSet::new();
        let mut bits = vec![false; 300];
        for &(start, len) in &ranges {
            set.push(start, start + len);
            for b in bits
                .iter_mut()
                .take((start + len) as usize)
                .skip(start as usize)
            {
                *b = true;
            }
        }
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(set.contains(i as u64), b, "cycle {i}");
        }
        assert_eq!(set.total(), bits.iter().filter(|&&b| b).count() as u64);
        // Normalized intervals are sorted and disjoint.
        for w in set.as_slice().windows(2) {
            assert!(w[0].1 < w[1].0);
        }
    }
}

/// Every bus request completes exactly once, and never faster than the
/// wire-speed bound.
#[test]
fn bus_conserves_requests() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xB002 + case);
        let n = rng.gen_range(1..60usize);
        let reqs: Vec<(u64, u32, bool, u8)> = (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..1_000_000u64),
                    rng.gen_range(1..256u32),
                    rng.gen::<bool>(),
                    rng.gen_range(0..4u32) as u8,
                )
            })
            .collect();
        let mut bus = shared_bus();
        let mut tokens = HashSet::new();
        let mut total_bytes = 0u64;
        for &(addr, bytes, write, master) in &reqs {
            tokens.insert(
                bus.try_request(MasterId(master), addr, bytes, write)
                    .unwrap(),
            );
            total_bytes += u64::from(bytes);
        }
        let mut done = HashSet::new();
        let mut last = 0;
        for cycle in 0..2_000_000u64 {
            bus.tick(cycle);
            for c in bus.drain_completions() {
                assert!(done.insert(c.token), "token {} completed twice", c.token);
                assert!(tokens.contains(&c.token));
                last = last.max(c.at);
            }
            if bus.is_idle() {
                break;
            }
        }
        assert_eq!(done.len(), tokens.len(), "all requests complete");
        // Wire-speed lower bound: total bytes / bytes-per-cycle.
        assert!(last >= total_bytes / bus_bytes_per_cycle());
        assert_eq!(bus.stats().bytes, total_bytes);
    }
}

/// The cache never exceeds its port budget per cycle, never loses an
/// access, and its hit/miss counters are conserved.
#[test]
fn cache_conserves_accesses() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xC003 + case);
        let n = rng.gen_range(1..300usize);
        let addrs: Vec<(u64, bool)> = (0..n)
            .map(|_| (rng.gen_range(0..4096u64), rng.gen::<bool>()))
            .collect();
        let ports = rng.gen_range(1..4u32);
        let cfg = CacheConfig {
            size_bytes: 1024,
            line_bytes: 32,
            assoc: 2,
            ports,
            mshrs: 4,
            hit_latency: 1,
            write_policy: aladdin_mem::WritePolicy::WriteBack,
            prefetch: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
        };
        let mut cache = Cache::try_new(cfg).expect("valid cache");
        let mut completed = HashSet::new();
        let mut issued = 0u64;
        let mut queue: Vec<(u64, u64, bool)> = addrs
            .iter()
            .enumerate()
            .map(|(i, &(a, w))| (i as u64, a, w))
            .collect();
        queue.reverse();
        let mut inflight: Vec<(u64, u64)> = Vec::new(); // (token, line)
        for cycle in 0..100_000u64 {
            cache.begin_cycle(cycle);
            // Model an infinitely fast bus: complete fills next cycle.
            for (id, at) in cache.drain_completions() {
                assert!(completed.insert(id));
                assert!(at >= cycle);
            }
            for (_, line) in inflight.drain(..) {
                cache.bus_completed(line, cycle);
            }
            let mut used = 0;
            while let Some(&(id, addr, write)) = queue.last() {
                let kind = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                match cache.access(id, addr, kind, cycle) {
                    CacheOutcome::Hit { .. } => {
                        assert!(completed.insert(id));
                        queue.pop();
                        used += 1;
                        issued += 1;
                    }
                    CacheOutcome::Miss => {
                        queue.pop();
                        used += 1;
                        issued += 1;
                    }
                    CacheOutcome::NoPort | CacheOutcome::NoMshr => break,
                }
                assert!(used <= ports, "port budget violated");
            }
            for req in cache.take_bus_requests() {
                if !req.write {
                    inflight.push((0, req.line_addr));
                }
            }
            if queue.is_empty() && cache.outstanding_misses() == 0 && inflight.is_empty() {
                // Final drain.
                for (id, _) in cache.drain_completions() {
                    assert!(completed.insert(id));
                }
                break;
            }
        }
        assert_eq!(completed.len(), addrs.len(), "every access completes once");
        assert_eq!(issued, addrs.len() as u64);
        let s = cache.stats();
        assert_eq!(s.accesses(), addrs.len() as u64);
    }
}

/// TLB: hits + misses equals translations; a second touch of the same
/// page with no intervening pressure is always a hit.
#[test]
fn tlb_counters_conserved() {
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xD004 + case);
        let n = rng.gen_range(1..200usize);
        let pages: Vec<u64> = (0..n).map(|_| rng.gen_range(0..32u64)).collect();
        let mut tlb = Tlb::try_new(TlbConfig::default()).expect("valid TLB");
        for (i, &p) in pages.iter().enumerate() {
            let at = tlb.translate(p * 4096, i as u64);
            assert!(at == i as u64 || at == i as u64 + 20);
            let again = tlb.translate(p * 4096, i as u64);
            assert_eq!(again, i as u64, "immediate re-touch must hit");
        }
        let s = tlb.stats();
        assert_eq!(s.hits + s.misses, 2 * pages.len() as u64);
    }
}

/// `IntervalSet::push` equals the sort-and-merge reference it replaced,
/// after every push, whether starts arrive in order (the O(1) append or
/// extend path), out of order (the fallback), empty or inverted.
#[test]
fn interval_push_matches_sort_and_merge_reference() {
    fn reference_push(ivals: &mut Vec<(u64, u64)>, start: u64, end: u64) {
        if end <= start {
            return;
        }
        ivals.push((start, end));
        ivals.sort_unstable();
        let mut merged: Vec<(u64, u64)> = Vec::new();
        for &(s, e) in ivals.iter() {
            match merged.last_mut() {
                Some(last) if s <= last.1 => last.1 = last.1.max(e),
                _ => merged.push((s, e)),
            }
        }
        *ivals = merged;
    }
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0xA101 + case);
        let mut set = IntervalSet::new();
        let mut reference = Vec::new();
        let mut cursor = 0u64;
        for _ in 0..rng.gen_range(1..80usize) {
            let start = if rng.gen_bool(0.8) {
                // In order: at, inside or past the last interval's start.
                cursor + rng.gen_range(0..12u64)
            } else {
                rng.gen_range(0..cursor + 1)
            };
            let end = if rng.gen_bool(0.1) {
                start.saturating_sub(rng.gen_range(0..3u64))
            } else {
                start + rng.gen_range(1..10u64)
            };
            cursor = cursor.max(start);
            set.push(start, end);
            reference_push(&mut reference, start, end);
            assert_eq!(set.as_slice(), reference.as_slice(), "case {case}");
        }
    }
}

/// The use-stamp LRU `Tlb` matches an ordered-`Vec` LRU reference (most
/// recently used last, evict the front) on every returned cycle and on
/// hit and miss counts, for 1 to 16 entries and several page sizes.
#[test]
fn stamp_lru_tlb_matches_ordered_vec_reference() {
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0xD101 + case);
        let cfg = TlbConfig {
            entries: rng.gen_range(1..17usize),
            page_bytes: 1 << rng.gen_range(6..14u32),
            miss_cycles: rng.gen_range(1..40u64),
        };
        let mut tlb = Tlb::try_new(cfg).expect("valid TLB");
        let mut lru: Vec<u64> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        let span = rng.gen_range(1..40u64);
        for i in 0..rng.gen_range(1..400u64) {
            let page = rng.gen_range(0..span);
            let addr = page * cfg.page_bytes + rng.gen_range(0..cfg.page_bytes);
            let expected = if let Some(pos) = lru.iter().position(|&p| p == page) {
                let p = lru.remove(pos);
                lru.push(p);
                hits += 1;
                i
            } else {
                if lru.len() == cfg.entries {
                    lru.remove(0);
                }
                lru.push(page);
                misses += 1;
                i + cfg.miss_cycles
            };
            assert_eq!(tlb.translate(addr, i), expected, "case {case}, access {i}");
        }
        assert_eq!(tlb.stats().hits, hits, "case {case}");
        assert_eq!(tlb.stats().misses, misses, "case {case}");
    }
}

/// Cache line state after a write is always dirty; after a sharer's
/// snooped read (through the transition function the cache runs) it is
/// never Modified/Exclusive, and it stays dirty (Owned).
#[test]
fn moesi_transitions() {
    use aladdin_mem::coherence::{self, Action, Event};
    use aladdin_mem::MoesiState;
    for case in 0..128u64 {
        let mut rng = SmallRng::seed_from_u64(0xE005 + case);
        let n = rng.gen_range(1..50usize);
        let addrs: Vec<u64> = (0..n).map(|_| rng.gen_range(0..2048u64)).collect();
        let mut cache = Cache::try_new(CacheConfig {
            prefetch: PrefetcherConfig {
                enabled: false,
                ..PrefetcherConfig::default()
            },
            ..CacheConfig::default()
        })
        .expect("valid cache");
        for (i, &addr) in addrs.iter().enumerate() {
            let cycle = i as u64;
            cache.begin_cycle(cycle);
            let _ = cache.access(i as u64, addr, AccessKind::Write, cycle);
            let reqs: Vec<_> = cache.take_bus_requests().collect();
            for req in reqs {
                if !req.write {
                    cache.bus_completed(req.line_addr, cycle);
                }
            }
            let _ = cache.drain_completions();
            if cache.contains(addr) {
                let st = cache.state_of(addr);
                assert!(st.is_dirty());
                let (snooped, action) = coherence::next(st, Event::SnoopRead);
                assert!(snooped == MoesiState::Owned || snooped == MoesiState::Shared);
                assert!(snooped.is_dirty(), "a snoop must not drop dirty data");
                assert_eq!(action, Action::Nothing);
                // A second snoop keeps the line Owned; a snooped write
                // invalidates it.
                assert_eq!(coherence::next(snooped, Event::SnoopRead).0, snooped);
                assert_eq!(
                    coherence::next(snooped, Event::SnoopWrite).0,
                    MoesiState::Invalid
                );
            }
        }
    }
}

/// The DMA engine moves exactly the requested bytes, delivers every
/// input byte exactly once, and cannot beat the bus's wire speed.
#[test]
fn dma_engine_conserves_bytes() {
    use aladdin_mem::{DmaConfig, DmaDirection, DmaEngine, DmaTransfer};
    for case in 0..64u64 {
        let mut rng = SmallRng::seed_from_u64(0xF006 + case);
        let n = rng.gen_range(1..6usize);
        let sizes: Vec<u64> = (0..n).map(|_| rng.gen_range(1..6000u64)).collect();
        let pipelined = rng.gen::<bool>();
        let elig_gap = rng.gen_range(0..500u64);
        let cfg = DmaConfig::default();
        let transfers: Vec<DmaTransfer> = sizes
            .iter()
            .enumerate()
            .map(|(i, &bytes)| DmaTransfer {
                base: i as u64 * 0x10000,
                bytes,
                direction: DmaDirection::In,
            })
            .collect();
        let chunks = cfg.chunk_sizes(pipelined, &transfers);
        let eligibility: Vec<u64> = (0..chunks.len() as u64).map(|k| k * elig_gap).collect();
        let mut engine =
            DmaEngine::try_new(cfg, pipelined, &transfers, &eligibility).expect("valid DMA engine");
        let mut bus = shared_bus();
        let mut cycle = 0u64;
        while !engine.is_done() {
            engine.tick(cycle, &mut bus).unwrap();
            bus.tick(cycle);
            for c in bus.drain_completions() {
                engine.on_bus_completion(c.token, c.at);
            }
            cycle += 1;
            assert!(cycle < 3_000_000, "engine never finished");
        }
        let total: u64 = sizes.iter().sum();
        assert_eq!(engine.stats().bytes, total);
        // Arrivals tile each transfer exactly.
        let mut arrivals: Vec<_> = engine.drain_arrivals().collect();
        arrivals.sort_by_key(|a| a.addr);
        for t in &transfers {
            let mut covered = 0u64;
            let mut next = t.base;
            for a in arrivals
                .iter()
                .filter(|a| a.addr >= t.base && a.addr < t.base + t.bytes)
            {
                assert_eq!(a.addr, next, "gap or overlap in arrivals");
                next += u64::from(a.bytes);
                covered += u64::from(a.bytes);
            }
            assert_eq!(covered, t.bytes);
        }
        // Wire-speed bound.
        let done = engine.done_at().unwrap();
        assert!(done >= total / bus_bytes_per_cycle());
    }
}

/// Flush schedules are monotone, cumulative, and their busy interval
/// covers exactly start..end.
#[test]
fn flush_schedule_is_cumulative() {
    use aladdin_mem::{Clock, FlushConfig, FlushSchedule};
    for case in 0..256u64 {
        let mut rng = SmallRng::seed_from_u64(0xF007 + case);
        let n = rng.gen_range(0..12usize);
        let chunks: Vec<u64> = (0..n).map(|_| rng.gen_range(1..10_000u64)).collect();
        let inval = rng.gen_range(0..20_000u64);
        let start = rng.gen_range(0..1000u64);
        let cfg = FlushConfig::default();
        let clock = Clock::default();
        let s = FlushSchedule::new(cfg, clock, start, &chunks, inval);
        let mut prev = start;
        for (k, &bytes) in chunks.iter().enumerate() {
            let done = s.chunk_done(k);
            assert_eq!(done - prev, cfg.flush_cycles(clock, bytes));
            assert!(done >= prev);
            prev = done;
        }
        assert_eq!(s.flush_end(), prev);
        assert_eq!(s.end(), prev + cfg.invalidate_cycles(clock, inval));
        if s.end() > start {
            assert_eq!(s.busy().total(), s.end() - start);
        } else {
            assert!(s.busy().is_empty());
        }
    }
}
