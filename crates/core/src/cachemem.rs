//! The cache-based datapath memory: TLB + MOESI cache over the SoC world.
//!
//! Routes shared arrays through an accelerator TLB and a hardware-managed
//! cache that fills over the system bus; private (`Internal`) arrays keep
//! using scratchpad banks, per the paper's design choice of only caching
//! "data that must eventually be shared with the rest of the system"
//! (Section IV-D).
//!
//! [`CacheClient`] is the accelerator side: TLB, cache, fill tracking and
//! private scratchpads. It plugs into a [`SocWorld`](crate::world::SocWorld)
//! as the world's [`Front`], so its fills arbitrate on the same
//! interconnect as every DMA engine and the background traffic, and the
//! world is the scheduler's memory. The single-accelerator cache flow
//! builds a private lockstep world around a client; `simulate_multi` swaps
//! one into the shared world its DMA jobs run in (the paper's Fig. 3
//! heterogeneous topology).
//!
//! Set the client's `ideal` flag to make every access single-cycle (the
//! Fig. 7 "processing time" bound); combine it with an infinite-bandwidth
//! bus for the "latency time" bound.

use aladdin_accel::{DatapathConfig, DatapathMemory, IssueResult, SpadMemory};
use aladdin_faults::FaultPlan;
use aladdin_ir::{ArrayInfo, ArrayKind, Diagnostic};
use aladdin_mem::{AccessKind, Cache, CacheOutcome, Fabric, FillTracker, MasterId, Tlb};

use crate::config::SocConfig;
use crate::world::Front;

#[derive(Debug, Clone, Copy)]
struct Delayed {
    id: u64,
    addr: u64,
    write: bool,
    ready_at: u64,
}

/// The accelerator side of a cache-based design: TLB, cache, fill
/// tracking and private scratchpads — everything except the bus, which
/// the world it is the [`Front`] of supplies each cycle.
#[derive(Debug)]
pub(crate) struct CacheClient {
    /// Scratchpad banks for the private arrays.
    pub(crate) spad: SpadMemory,
    shared_ranges: Vec<(u64, u64)>,
    pub(crate) tlb: Tlb,
    pub(crate) cache: Cache,
    fills: FillTracker,
    /// TLB-delayed accesses, oldest first.
    delayed: Vec<Delayed>,
    /// Delayed accesses the cache turned away again this cycle.
    retry: Vec<Delayed>,
    completions: Vec<(u64, u64)>,
    ideal: bool,
    master: MasterId,
}

impl CacheClient {
    /// A client requesting as `master`, built from array metadata alone
    /// (what both in-memory and streamed `.atrc` traces provide).
    pub(crate) fn from_arrays(
        arrays: &[ArrayInfo],
        cfg: &DatapathConfig,
        soc: &SocConfig,
        master: MasterId,
    ) -> Self {
        let shared_ranges = arrays
            .iter()
            .filter(|a| a.kind != ArrayKind::Internal)
            .map(|a| (a.base_addr, a.base_addr + a.size_bytes()))
            .collect();
        CacheClient {
            spad: SpadMemory::from_arrays(arrays, cfg),
            shared_ranges,
            tlb: Tlb::new(soc.tlb),
            cache: Cache::new(soc.cache),
            fills: FillTracker::new(),
            delayed: Vec::new(),
            retry: Vec::new(),
            completions: Vec::new(),
            ideal: false,
            master,
        }
    }

    pub(crate) fn set_ideal(&mut self, ideal: bool) {
        self.ideal = ideal;
    }

    /// Arm the TLB page-walk injection site (bus/DRAM sites are armed by
    /// whoever owns the bus).
    pub(crate) fn set_faults(&mut self, plan: &FaultPlan) {
        self.tlb.set_faults(plan.tlb_injector());
    }

    fn is_shared(&self, addr: u64) -> bool {
        self.shared_ranges
            .iter()
            .any(|&(b, e)| addr >= b && addr < e)
    }
}

fn cache_try(cache: &mut Cache, id: u64, addr: u64, write: bool, cycle: u64) -> IssueResult {
    let kind = if write {
        AccessKind::Write
    } else {
        AccessKind::Read
    };
    match cache.access(id, addr, kind, cycle) {
        CacheOutcome::Hit { at } => IssueResult::Done { at },
        CacheOutcome::Miss => IssueResult::Pending,
        CacheOutcome::NoPort | CacheOutcome::NoMshr => IssueResult::Reject,
    }
}

impl DatapathMemory for CacheClient {
    fn begin_cycle(&mut self, cycle: u64) {
        self.spad.begin_cycle(cycle);
        self.cache.begin_cycle(cycle);
        // Retry TLB-delayed accesses that are now translated, oldest
        // first. Those not yet due keep their order; those the cache turns
        // away again queue behind them.
        let CacheClient {
            cache,
            delayed,
            retry,
            completions,
            ..
        } = self;
        delayed.retain(|d| {
            if d.ready_at > cycle {
                return true;
            }
            match cache_try(cache, d.id, d.addr, d.write, cycle) {
                IssueResult::Done { at } => completions.push((d.id, at)),
                IssueResult::Pending => {}
                IssueResult::Reject => retry.push(Delayed {
                    ready_at: cycle + 1,
                    ..*d
                }),
            }
            false
        });
        delayed.append(retry);
    }

    fn issue(&mut self, id: u64, addr: u64, bytes: u32, write: bool, cycle: u64) -> IssueResult {
        if self.ideal {
            return IssueResult::Done { at: cycle + 1 };
        }
        if !self.is_shared(addr) {
            return self.spad.issue(id, addr, bytes, write, cycle);
        }
        // Virtual memory: translate first. A TLB miss delays the access by
        // the page-walk penalty; the access is retried internally.
        let ready = self.tlb.translate(addr, cycle);
        if ready > cycle {
            self.delayed.push(Delayed {
                id,
                addr,
                write,
                ready_at: ready,
            });
            return IssueResult::Pending;
        }
        cache_try(&mut self.cache, id, addr, write, cycle)
    }

    fn drain_completions(&mut self, out: &mut Vec<(u64, u64)>) {
        out.append(&mut self.completions);
        self.spad.drain_completions(out);
    }

    /// Collect waiters released by fills that completed this cycle (the
    /// world has delivered its bus completions by now).
    fn end_cycle(&mut self, _cycle: u64) {
        self.completions.extend(self.cache.drain_completions());
    }
}

impl Front for CacheClient {
    fn bus_master(&self) -> Option<MasterId> {
        Some(self.master)
    }

    /// Forward the cache's new transactions under this client's master id,
    /// tracking read fills.
    fn push_bus_requests(&mut self, bus: &mut Fabric) -> Result<(), Diagnostic> {
        for req in self.cache.take_bus_requests() {
            let token = bus.try_request(self.master, req.line_addr, req.bytes, req.write)?;
            if !req.write {
                self.fills.insert(token, req.line_addr);
            }
        }
        Ok(())
    }

    fn on_bus_completion(&mut self, token: u64, at: u64) {
        if let Some(line_addr) = self.fills.remove(token) {
            self.cache.bus_completed(line_addr, at);
        }
    }

    fn forensic_note(&self) -> Option<String> {
        Some(format!(
            "cache: {} TLB-delayed access(es)",
            self.delayed.len()
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::SocWorld;
    use aladdin_accel::schedule;
    use aladdin_ir::{ArrayKind as AK, Opcode, Trace, Tracer};

    fn mem_for(trace: &Trace, dp: &DatapathConfig, soc: &SocConfig) -> SocWorld<CacheClient> {
        let client = CacheClient::from_arrays(trace.arrays(), dp, soc, MasterId::ACCEL_CACHE);
        SocWorld::new(soc, client).expect("valid topology")
    }

    fn streaming_trace(elems: usize) -> Trace {
        let mut t = Tracer::new("stream");
        let a = t.array_f64("a", &vec![1.0; elems], AK::Input);
        let mut o = t.array_f64("o", &vec![0.0; elems], AK::Output);
        for i in 0..elems {
            t.begin_iteration(i as u32);
            let x = t.load(&a, i);
            let y = t.binop(Opcode::FAdd, x, aladdin_ir::TVal::lit(1.0));
            t.store(&mut o, i, y);
        }
        t.finish()
    }

    #[test]
    fn cache_flow_completes_and_counts() {
        let trace = streaming_trace(256);
        let dp = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let mut mem = mem_for(&trace, &dp, &soc);
        let r = schedule(&trace, &dp, &mut mem, 0);
        assert!(r.end > 0);
        let cs = mem.front.cache.stats();
        assert!(cs.misses > 0, "cold cache must miss: {cs:?}");
        assert!(cs.hits > 0, "line reuse must hit: {cs:?}");
        let ts = mem.front.tlb.stats();
        assert!(ts.misses >= 1);
        assert!(mem.bus_stats().bytes > 0);
    }

    #[test]
    fn ideal_mode_is_fastest() {
        let trace = streaming_trace(128);
        let dp = DatapathConfig {
            lanes: 4,
            partition: 4,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let mut real = mem_for(&trace, &dp, &soc);
        let r_real = schedule(&trace, &dp, &mut real, 0);
        let mut ideal = mem_for(&trace, &dp, &soc);
        ideal.front.set_ideal(true);
        let r_ideal = schedule(&trace, &dp, &mut ideal, 0);
        assert!(
            r_ideal.end < r_real.end,
            "ideal {} must beat real {}",
            r_ideal.end,
            r_real.end
        );
    }

    #[test]
    fn internal_arrays_bypass_the_cache() {
        let mut t = Tracer::new("internal");
        let mut m = t.array_f64("m", &vec![0.0; 64], AK::Internal);
        for i in 0..64 {
            t.begin_iteration(i as u32);
            t.store(&mut m, i, aladdin_ir::TVal::lit(1.0));
        }
        let trace = t.finish();
        let dp = DatapathConfig::default();
        let soc = SocConfig::default();
        let mut mem = mem_for(&trace, &dp, &soc);
        let _ = schedule(&trace, &dp, &mut mem, 0);
        assert_eq!(mem.front.cache.stats().accesses(), 0);
        assert_eq!(mem.front.spad.stats().writes, 64);
    }

    #[test]
    fn infinite_bus_bandwidth_helps_wide_designs() {
        let trace = streaming_trace(512);
        let dp = DatapathConfig {
            lanes: 16,
            partition: 16,
            ..DatapathConfig::default()
        };
        let soc = SocConfig::default();
        let mut cache_cfg = soc.cache;
        cache_cfg.ports = 8;
        let narrow_soc = SocConfig {
            cache: cache_cfg,
            ..soc
        };
        let mut inf_bus = narrow_soc.bus;
        inf_bus.infinite_bandwidth = true;
        let wide_soc = SocConfig {
            bus: inf_bus,
            ..narrow_soc
        };
        let mut narrow = mem_for(&trace, &dp, &narrow_soc);
        let rn = schedule(&trace, &dp, &mut narrow, 0);
        let mut wide = mem_for(&trace, &dp, &wide_soc);
        let rw = schedule(&trace, &dp, &mut wide, 0);
        assert!(
            rw.end <= rn.end,
            "infinite bandwidth cannot be slower: {} vs {}",
            rw.end,
            rn.end
        );
    }

    #[test]
    fn traffic_contention_slows_the_run() {
        let trace = streaming_trace(512);
        let dp = DatapathConfig {
            lanes: 8,
            partition: 8,
            ..DatapathConfig::default()
        };
        let quiet = SocConfig::default();
        let noisy = SocConfig {
            traffic: Some(crate::TrafficConfig {
                period: 20,
                bytes: 64,
            }),
            ..quiet
        };
        let mut q = mem_for(&trace, &dp, &quiet);
        let rq = schedule(&trace, &dp, &mut q, 0);
        let mut n = mem_for(&trace, &dp, &noisy);
        let rn = schedule(&trace, &dp, &mut n, 0);
        assert!(
            rn.end > rq.end,
            "contention must cost time: {} vs {}",
            rn.end,
            rq.end
        );
    }
}
