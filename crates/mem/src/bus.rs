//! Bus-level vocabulary of the interconnect: master ids, tokens, the bus
//! configuration, completions, statistics and fault sites.

use aladdin_faults::{FaultInjector, FaultPlan, NackInjector};

use crate::interconnect::ensure_len;

/// Identifies a bus master (requester).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MasterId(pub u8);

impl MasterId {
    /// The DMA engine.
    pub const DMA: MasterId = MasterId(0);
    /// The accelerator's cache (fills and writebacks).
    pub const ACCEL_CACHE: MasterId = MasterId(1);
    /// The host CPU.
    pub const CPU: MasterId = MasterId(2);
    /// Background traffic generator (contention studies).
    pub const TRAFFIC: MasterId = MasterId(3);

    /// Number of pre-named masters (the single-accelerator roles above).
    /// Interconnects provision arbitration queues dynamically, so this is
    /// no longer a hard cap on SoC size — topology capacity is.
    pub const COUNT: usize = 4;

    /// The id space: masters are `u8`-indexed, so at most 256 exist.
    pub const ID_SPACE: usize = 256;

    /// Register the `index`-th client of a multi-accelerator SoC: each
    /// concurrent job (DMA- or cache-based alike) claims one arbitration
    /// queue. Queues grow on demand, so the only hard limit is the
    /// [`MasterId`] id space; whether the *topology* can host the master
    /// is checked by [`Fabric::register_master`](crate::Fabric::register_master)
    /// / topology capacity validation. Returns `None` beyond the id space — callers surface
    /// that as a typed configuration error instead of indexing out of
    /// bounds.
    #[must_use]
    pub fn job(index: usize) -> Option<MasterId> {
        if index < MasterId::ID_SPACE {
            Some(MasterId(index as u8))
        } else {
            None
        }
    }
}

/// Token identifying an outstanding bus request.
pub type Token = u64;

/// System-bus configuration.
///
/// The paper sweeps the bus width between 32 and 64 bits as a proxy for
/// shared-resource contention (Section V-B2); `infinite_bandwidth` removes
/// the serialization entirely for the Fig. 7 latency-time decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusConfig {
    /// Data width in bits (32 or 64 in the paper).
    pub width_bits: u32,
    /// If set, requests never contend: each completes after its own
    /// DRAM latency + transfer time.
    pub infinite_bandwidth: bool,
}

impl Default for BusConfig {
    fn default() -> Self {
        BusConfig {
            width_bits: 32,
            infinite_bandwidth: false,
        }
    }
}

/// A completed bus transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusCompletion {
    /// Token returned by [`Fabric::try_request`](crate::Fabric::try_request).
    pub token: Token,
    /// Master that issued the request.
    pub master: MasterId,
    /// Cycle at which the last beat of data transferred.
    pub at: u64,
}

/// Aggregate interconnect statistics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Total requests accepted.
    pub requests: u64,
    /// Total bytes transferred.
    pub bytes: u64,
    /// Cycles the data wires were occupied.
    pub busy_cycles: u64,
    /// Bytes transferred per master, indexed by [`MasterId`]; grows on
    /// demand as masters register.
    pub bytes_per_master: Vec<u64>,
}

impl BusStats {
    /// Bytes transferred by `master` (0 for masters never seen).
    #[must_use]
    pub fn master_bytes(&self, master: MasterId) -> u64 {
        self.bytes_per_master
            .get(master.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// Credit `bytes` to `master`, growing the per-master table.
    pub fn add_master_bytes(&mut self, master: MasterId, bytes: u64) {
        ensure_len(&mut self.bytes_per_master, master);
        self.bytes_per_master[master.0 as usize] += bytes;
    }
}

/// Live fault-injection state for one bus and the DRAM behind it.
///
/// Construct per simulation run with [`BusFaults::from_plan`]; each field
/// left `None` leaves that site on the exact unperturbed code path.
#[derive(Debug, Default)]
pub struct BusFaults {
    /// Grant-delay injector (arbitration takes extra cycles).
    pub grant: Option<FaultInjector>,
    /// Burst-NACK injector (bounded retry/backoff per request).
    pub nack: Option<NackInjector>,
    /// DRAM latency-spike injector.
    pub dram: Option<FaultInjector>,
}

impl BusFaults {
    /// Fresh injectors for the bus-related sites of `plan`.
    #[must_use]
    pub fn from_plan(plan: &FaultPlan) -> Self {
        BusFaults {
            grant: plan.grant_injector(),
            nack: plan.nack_injector(),
            dram: plan.dram_injector(),
        }
    }

    /// Whether no bus-related site is configured.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.grant.is_none() && self.nack.is_none() && self.dram.is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dram::DramConfig;
    use crate::interconnect::{Fabric, TopologyConfig};

    fn bus_with(cfg: BusConfig) -> Fabric {
        Fabric::try_new(cfg, DramConfig::default(), TopologyConfig::default()).unwrap()
    }

    fn shared_bus() -> Fabric {
        bus_with(BusConfig::default())
    }

    fn run_until_idle(bus: &mut Fabric, max_cycles: u64) -> Vec<BusCompletion> {
        let mut all = Vec::new();
        for cycle in 0..max_cycles {
            bus.tick(cycle);
            all.extend(bus.drain_completions());
            if bus.is_idle() {
                break;
            }
        }
        all
    }

    #[test]
    fn bad_bus_config_is_a_typed_diagnostic() {
        let narrow = BusConfig {
            width_bits: 4,
            ..BusConfig::default()
        };
        assert_eq!(
            Fabric::try_new(narrow, DramConfig::default(), TopologyConfig::default())
                .unwrap_err()
                .code,
            "L0213"
        );
        let mut bus = shared_bus();
        assert_eq!(
            bus.try_request(MasterId::DMA, 0x100, 0, false)
                .unwrap_err()
                .code,
            "L0215"
        );
        assert_eq!(bus.stats().requests, 0, "rejected request must not count");
    }

    #[test]
    fn single_request_latency() {
        let mut bus = shared_bus();
        // 64 bytes over a 4 B/cycle bus: 16 transfer cycles + 10 (cold row).
        bus.try_request(MasterId::DMA, 0, 64, false).unwrap();
        let done = run_until_idle(&mut bus, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].at, 26);
    }

    #[test]
    fn sequential_stream_saturates_bandwidth() {
        let mut bus = shared_bus();
        // 64 sequential 64 B bursts = 4 KB: the steady-state rate must be
        // ~4 B/cycle (row hits hidden under transfers).
        for i in 0..64u64 {
            bus.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
        }
        let done = run_until_idle(&mut bus, 10_000);
        let last = done.iter().map(|c| c.at).max().unwrap();
        let ideal = 4096 / 4;
        assert!(last >= ideal as u64);
        assert!(
            last <= ideal as u64 + 30,
            "stream took {last}, ideal {ideal}"
        );
    }

    #[test]
    fn wider_bus_is_faster() {
        let mut narrow = shared_bus();
        let mut wide = bus_with(BusConfig {
            width_bits: 64,
            ..BusConfig::default()
        });
        for i in 0..32u64 {
            narrow
                .try_request(MasterId::DMA, i * 64, 64, false)
                .unwrap();
            wide.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
        }
        let n = run_until_idle(&mut narrow, 10_000);
        let w = run_until_idle(&mut wide, 10_000);
        let n_last = n.iter().map(|c| c.at).max().unwrap();
        let w_last = w.iter().map(|c| c.at).max().unwrap();
        assert!(
            w_last * 2 <= n_last + 64,
            "64-bit bus ({w_last}) should halve 32-bit time ({n_last})"
        );
    }

    #[test]
    fn round_robin_shares_fairly() {
        let mut bus = shared_bus();
        for i in 0..16u64 {
            bus.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
            bus.try_request(MasterId::ACCEL_CACHE, 0x100_0000 + i * 64, 64, false)
                .unwrap();
        }
        let done = run_until_idle(&mut bus, 10_000);
        let dma_last = done
            .iter()
            .filter(|c| c.master == MasterId::DMA)
            .map(|c| c.at)
            .max()
            .unwrap();
        let cache_last = done
            .iter()
            .filter(|c| c.master == MasterId::ACCEL_CACHE)
            .map(|c| c.at)
            .max()
            .unwrap();
        let diff = dma_last.abs_diff(cache_last);
        assert!(diff <= 64, "masters should finish about together: {diff}");
    }

    #[test]
    fn contention_slows_a_master_down() {
        let mut alone = shared_bus();
        let mut shared = shared_bus();
        for i in 0..16u64 {
            alone.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
            shared
                .try_request(MasterId::DMA, i * 64, 64, false)
                .unwrap();
            shared
                .try_request(MasterId::TRAFFIC, 0x200_0000 + i * 64, 64, false)
                .unwrap();
        }
        let a = run_until_idle(&mut alone, 10_000);
        let s = run_until_idle(&mut shared, 10_000);
        let a_last = a
            .iter()
            .filter(|c| c.master == MasterId::DMA)
            .map(|c| c.at)
            .max()
            .unwrap();
        let s_last = s
            .iter()
            .filter(|c| c.master == MasterId::DMA)
            .map(|c| c.at)
            .max()
            .unwrap();
        assert!(
            s_last > a_last + a_last / 2,
            "contention must hurt: {a_last} vs {s_last}"
        );
    }

    #[test]
    fn infinite_bandwidth_mode_removes_contention() {
        let mut bus = bus_with(BusConfig {
            infinite_bandwidth: true,
            ..BusConfig::default()
        });
        for i in 0..8u64 {
            // All to the same row so each is a row hit after the first.
            bus.try_request(MasterId::ACCEL_CACHE, i * 64, 64, false)
                .unwrap();
        }
        bus.tick(0);
        let mut done = Vec::new();
        for cycle in 0..100 {
            bus.tick(cycle);
            done.extend(bus.drain_completions());
        }
        assert_eq!(done.len(), 8);
        // Each completes at its own latency: no serialization, so all are
        // within the single-request window.
        let max = done.iter().map(|c| c.at).max().unwrap();
        assert!(max <= 26, "infinite bw should not serialize: {max}");
    }

    #[test]
    fn stats_accumulate() {
        let mut bus = shared_bus();
        bus.try_request(MasterId::DMA, 0, 64, false).unwrap();
        bus.try_request(MasterId::CPU, 4096, 32, true).unwrap();
        let _ = run_until_idle(&mut bus, 1000);
        let s = bus.stats();
        assert_eq!(s.requests, 2);
        assert_eq!(s.bytes, 96);
        assert_eq!(s.bytes_per_master[MasterId::DMA.0 as usize], 64);
        assert_eq!(s.bytes_per_master[MasterId::CPU.0 as usize], 32);
        assert_eq!(s.master_bytes(MasterId::DMA), 64);
        assert_eq!(s.master_bytes(MasterId(200)), 0, "unseen master is 0");
        assert_eq!(s.busy_cycles, 16 + 8);
    }

    #[test]
    #[should_panic(expected = "zero-byte")]
    fn zero_byte_request_rejected() {
        let mut bus = shared_bus();
        bus.try_request(MasterId::DMA, 0, 0, false).unwrap();
    }

    #[test]
    fn empty_faults_leave_timing_bit_identical() {
        let mut plain = shared_bus();
        let mut armed = shared_bus();
        armed.set_faults(BusFaults::from_plan(&FaultPlan::none()));
        for i in 0..8u64 {
            plain.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
            armed.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
        }
        let a = run_until_idle(&mut plain, 10_000);
        let b = run_until_idle(&mut armed, 10_000);
        assert_eq!(a, b);
        assert_eq!(plain.stats(), armed.stats());
    }

    #[test]
    fn fault_injection_is_deterministic_bounded_and_terminating() {
        use aladdin_faults::{FaultSpec, NackSpec};
        let plan = FaultPlan {
            seed: 3,
            bus_grant: Some(FaultSpec {
                rate: 0.5,
                max_extra: 7,
            }),
            bus_nack: Some(NackSpec {
                rate: 0.5,
                max_retries: 3,
                backoff_cycles: 5,
            }),
            dram: Some(FaultSpec {
                rate: 0.5,
                max_extra: 9,
            }),
            ..FaultPlan::none()
        };
        let mut runs = Vec::new();
        for _ in 0..2 {
            let mut bus = shared_bus();
            bus.set_faults(BusFaults::from_plan(&plan));
            for i in 0..16u64 {
                bus.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
                bus.try_request(MasterId::TRAFFIC, 0x200_0000 + i * 64, 64, false)
                    .unwrap();
            }
            let done = run_until_idle(&mut bus, 100_000);
            assert_eq!(done.len(), 32, "every request completes despite NACKs");
            runs.push(done);
        }
        assert_eq!(runs[0], runs[1], "same seed, same completion schedule");

        let mut plain = shared_bus();
        for i in 0..16u64 {
            plain.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
            plain
                .try_request(MasterId::TRAFFIC, 0x200_0000 + i * 64, 64, false)
                .unwrap();
        }
        let base = run_until_idle(&mut plain, 100_000);
        let base_last = base.iter().map(|c| c.at).max().unwrap();
        let fault_last = runs[0].iter().map(|c| c.at).max().unwrap();
        assert!(fault_last > base_last, "heavy injection must cost cycles");
    }

    #[test]
    fn queue_depths_report_backlog() {
        let mut bus = shared_bus();
        for i in 0..4u64 {
            bus.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
        }
        bus.try_request(MasterId::CPU, 0x8000, 64, false).unwrap();
        let d = bus.queue_depths();
        assert_eq!(d[MasterId::DMA.0 as usize], 4);
        assert_eq!(d[MasterId::CPU.0 as usize], 1);
        assert_eq!(bus.in_flight_count(), 0);
        bus.tick(0);
        assert_eq!(bus.in_flight_count(), 2);
    }

    #[test]
    fn queues_grow_past_the_old_four_master_cap() {
        let mut bus = shared_bus();
        for j in 0..9u8 {
            let m = MasterId::job(j as usize).unwrap();
            bus.try_request(m, u64::from(j) << 24, 64, false).unwrap();
        }
        assert!(MasterId::job(255).is_some());
        assert!(MasterId::job(256).is_none());
        let done = run_until_idle(&mut bus, 10_000);
        assert_eq!(done.len(), 9);
        let masters: std::collections::BTreeSet<u8> = done.iter().map(|c| c.master.0).collect();
        assert_eq!(masters.len(), 9, "each of 9 masters completed");
        assert_eq!(bus.stats().master_bytes(MasterId(8)), 64);
    }

    #[test]
    fn growing_queues_never_changes_arbitration() {
        // Same request stream on a fresh bus vs one that pre-registered
        // many extra (idle) masters: the completion schedule is identical,
        // because empty queues are skipped without side effects.
        let mut small = shared_bus();
        let mut big = shared_bus();
        big.register_master(MasterId(200)).unwrap();
        for i in 0..16u64 {
            small.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
            small
                .try_request(MasterId::TRAFFIC, 0x200_0000 + i * 64, 64, false)
                .unwrap();
            big.try_request(MasterId::DMA, i * 64, 64, false).unwrap();
            big.try_request(MasterId::TRAFFIC, 0x200_0000 + i * 64, 64, false)
                .unwrap();
        }
        let a = run_until_idle(&mut small, 100_000);
        let b = run_until_idle(&mut big, 100_000);
        assert_eq!(a, b);
    }
}
