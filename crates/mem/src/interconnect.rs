//! The SoC interconnect: one [`Fabric`] type for every topology.
//!
//! The paper's contention studies (Fig. 3, Section V-B2) sweep only the
//! width of one shared bus. Here the *topology* is a design axis too: the
//! same request / grant / complete contract, per-master statistics, and
//! fault-injection sites serve four topologies —
//!
//! * [`Topology::SharedBus`] — the original shared bus: one round-robin
//!   arbiter, one data channel, one-deep DRAM pipelining.
//! * [`Topology::Crossbar`] — `radix` independent slave ports, each with
//!   its own round-robin arbiter and data channel; addresses interleave
//!   across slaves at DRAM-row granularity, so disjoint streams proceed
//!   in parallel.
//! * [`Topology::TwoLevelBus`] — masters are grouped into local cluster
//!   buses that serialize at the configured width, then bridge (with a
//!   fixed latency) onto one global bus in front of DRAM. Aggregate
//!   bandwidth matches the shared bus; local traffic arbitrates only
//!   against its cluster.
//! * [`Topology::MeshNoc`] — a `cols × rows` grid, memory controller at
//!   node 0, master *m* at node *m + 1*. Requests are XY-routed (west,
//!   then north) with store-and-forward links: each hop pays `hop_cycles`
//!   plus the serialization of the payload over a `link_bits`-wide link.
//!
//! The queues, the NACK check, the grant step (grant-fault draw, DRAM
//! access, channel schedule, statistics) and retirement are written once;
//! a private route holds only what differs per topology. An AXI-like
//! protocol stage ([`ProtocolConfig`]) sits in front of every topology:
//! transactions larger than `max_burst_bytes` split into bursts that
//! complete as one parent transaction, and each master holds at most
//! `max_outstanding` bursts in the fabric at a time.
//!
//! The contention-free (`infinite_bandwidth`) grant path is handled once,
//! in [`DataChannel::schedule`], so every topology gets the Fig. 7
//! no-contention mode.

use std::collections::{BinaryHeap, VecDeque};

use aladdin_faults::{FaultInjector, NackInjector};
use aladdin_ir::{Diagnostic, Locus, Report};

use crate::bus::{BusCompletion, BusConfig, BusFaults, BusStats, MasterId, Token};
use crate::dram::{Dram, DramConfig};

/// The interconnect topology between bus masters and DRAM.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Topology {
    /// One shared bus, round-robin arbitration (the paper's model).
    #[default]
    SharedBus,
    /// `radix` independent slave ports with per-slave arbitration;
    /// addresses interleave across slaves at DRAM-row granularity.
    Crossbar {
        /// Number of slave ports (parallel data channels).
        radix: u32,
    },
    /// Local cluster buses bridged onto one global bus.
    TwoLevelBus {
        /// Number of local cluster buses; master `m` belongs to cluster
        /// `m % clusters`.
        clusters: u32,
        /// Fixed latency of crossing the local→global bridge.
        bridge_cycles: u32,
    },
    /// An XY-routed mesh network-on-chip with the memory controller at
    /// node 0 and master `m` at node `m + 1` (row-major).
    MeshNoc {
        /// Grid width.
        cols: u32,
        /// Grid height.
        rows: u32,
        /// Per-hop router/link latency in cycles.
        hop_cycles: u32,
        /// Link width in bits (payload serialization per hop).
        link_bits: u32,
    },
}

impl Topology {
    /// Short stable name of the topology kind.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Topology::SharedBus => "shared-bus",
            Topology::Crossbar { .. } => "crossbar",
            Topology::TwoLevelBus { .. } => "two-level",
            Topology::MeshNoc { .. } => "mesh",
        }
    }

    /// Canonical compact spec string, accepted back by [`Topology::parse`].
    #[must_use]
    pub fn spec_string(&self) -> String {
        match *self {
            Topology::SharedBus => "shared-bus".to_owned(),
            Topology::Crossbar { radix } => format!("crossbar:{radix}"),
            Topology::TwoLevelBus {
                clusters,
                bridge_cycles,
            } => format!("two-level:{clusters}:{bridge_cycles}"),
            Topology::MeshNoc {
                cols,
                rows,
                hop_cycles,
                link_bits,
            } => format!("mesh:{cols}x{rows}:{hop_cycles}:{link_bits}"),
        }
    }

    /// Parse a compact topology spec: `shared-bus`, `crossbar:RADIX`,
    /// `two-level:CLUSTERS[:BRIDGE]`, `mesh:COLSxROWS[:HOP[:LINKBITS]]`.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message on an unknown kind or malformed
    /// parameters; structural validity (non-zero dimensions etc.) is
    /// checked by [`TopologyConfig::check`], not here.
    pub fn parse(spec: &str) -> Result<Topology, String> {
        let mut parts = spec.split(':');
        let kind = parts.next().unwrap_or_default();
        let rest: Vec<&str> = parts.collect();
        let num = |s: &str| -> Result<u32, String> {
            s.parse()
                .map_err(|_| format!("expected a number in topology spec, got {s:?}"))
        };
        match kind {
            "shared-bus" | "bus" | "shared" => {
                if rest.is_empty() {
                    Ok(Topology::SharedBus)
                } else {
                    Err("shared-bus takes no parameters".to_owned())
                }
            }
            "crossbar" | "xbar" => match rest.as_slice() {
                [r] => Ok(Topology::Crossbar { radix: num(r)? }),
                [] => Ok(Topology::Crossbar { radix: 4 }),
                _ => Err("crossbar takes one parameter: crossbar:RADIX".to_owned()),
            },
            "two-level" | "hierarchical" => match rest.as_slice() {
                [c] => Ok(Topology::TwoLevelBus {
                    clusters: num(c)?,
                    bridge_cycles: 4,
                }),
                [c, b] => Ok(Topology::TwoLevelBus {
                    clusters: num(c)?,
                    bridge_cycles: num(b)?,
                }),
                [] => Ok(Topology::TwoLevelBus {
                    clusters: 2,
                    bridge_cycles: 4,
                }),
                _ => Err("two-level takes two parameters: two-level:CLUSTERS:BRIDGE".to_owned()),
            },
            "mesh" | "noc" => {
                let dims = rest
                    .first()
                    .ok_or_else(|| "mesh needs dimensions: mesh:COLSxROWS".to_owned())?;
                let (c, r) = dims
                    .split_once('x')
                    .ok_or_else(|| format!("expected COLSxROWS, got {dims:?}"))?;
                let cols = num(c)?;
                let rows = num(r)?;
                let hop_cycles = rest.get(1).map_or(Ok(1), |s| num(s))?;
                let link_bits = rest.get(2).map_or(Ok(32), |s| num(s))?;
                if rest.len() > 3 {
                    return Err(
                        "mesh takes at most three parameters: mesh:COLSxROWS:HOP:LINKBITS"
                            .to_owned(),
                    );
                }
                Ok(Topology::MeshNoc {
                    cols,
                    rows,
                    hop_cycles,
                    link_bits,
                })
            }
            other => Err(format!(
                "unknown topology {other:?} (known: shared-bus, crossbar:RADIX, \
                 two-level:CLUSTERS:BRIDGE, mesh:COLSxROWS:HOP:LINKBITS)"
            )),
        }
    }
}

/// AXI-like transaction protocol shared by every topology.
///
/// The defaults are inert: no burst splitting and no outstanding cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProtocolConfig {
    /// Split transactions larger than this many bytes into bursts that
    /// complete as one parent transaction; `0` disables splitting.
    pub max_burst_bytes: u32,
    /// Maximum bursts one master may hold in the fabric at a time; `0`
    /// means unlimited.
    pub max_outstanding: u32,
}

impl ProtocolConfig {
    /// Whether this configuration changes nothing (no protocol stage).
    #[must_use]
    pub fn is_inert(&self) -> bool {
        self.max_burst_bytes == 0 && self.max_outstanding == 0
    }
}

/// The sweepable interconnect configuration: a [`Topology`] plus the
/// shared [`ProtocolConfig`]. The default is the paper's shared bus with
/// an inert protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TopologyConfig {
    /// Fabric topology.
    pub topology: Topology,
    /// Burst/outstanding transaction protocol.
    pub protocol: ProtocolConfig,
}

/// `L0310`: structurally invalid topology configuration.
pub const CODE_BAD_TOPOLOGY: &str = "L0310";
/// `L0311`: a job set (or master id) exceeds what the topology can host.
pub const CODE_TOPOLOGY_CAPACITY: &str = "L0311";

/// Most crossbar ports or two-level clusters a fabric may have. Their
/// arbitration state is allocated up front, so an unbounded count from a
/// topology string could exhaust memory; 256 matches the master id space.
const MAX_PORTS: u32 = 256;

impl TopologyConfig {
    /// How many masters this topology can host. Bus-style fabrics grow
    /// arbitration queues dynamically up to the [`MasterId`] id space; a
    /// mesh is limited by its grid (one node is the memory controller).
    #[must_use]
    pub fn capacity(&self) -> usize {
        match self.topology {
            Topology::SharedBus | Topology::Crossbar { .. } | Topology::TwoLevelBus { .. } => 256,
            Topology::MeshNoc { cols, rows, .. } => ((cols as usize).saturating_mul(rows as usize))
                .saturating_sub(1)
                .min(256),
        }
    }

    /// Structural validation (`L0310` errors).
    #[must_use]
    pub fn check(&self) -> Report {
        let mut report = Report::new();
        let mut err = |msg: String| {
            report.push(Diagnostic::error(CODE_BAD_TOPOLOGY, msg).at(Locus::Field("soc.topology")));
        };
        match self.topology {
            Topology::SharedBus => {}
            Topology::Crossbar { radix } => {
                if radix == 0 {
                    err("crossbar radix must be at least 1".to_owned());
                } else if radix > MAX_PORTS {
                    err(format!(
                        "crossbar radix must be at most {MAX_PORTS}, got {radix}"
                    ));
                }
            }
            Topology::TwoLevelBus { clusters, .. } => {
                if clusters == 0 {
                    err("two-level bus needs at least one cluster".to_owned());
                } else if clusters > MAX_PORTS {
                    err(format!(
                        "two-level bus takes at most {MAX_PORTS} clusters, got {clusters}"
                    ));
                }
            }
            Topology::MeshNoc {
                cols,
                rows,
                link_bits,
                ..
            } => {
                if cols == 0 || rows == 0 {
                    err(format!(
                        "mesh dimensions must be positive, got {cols}x{rows}"
                    ));
                } else if (cols as u64) * (rows as u64) < 2 {
                    err("mesh needs at least 2 nodes (controller + one master)".to_owned());
                }
                if link_bits < 8 {
                    err(format!(
                        "mesh link width must be at least one byte, got {link_bits} bits"
                    ));
                }
            }
        }
        report
    }

    /// Whether this topology can host `master`.
    ///
    /// # Errors
    ///
    /// Returns an `L0311` diagnostic naming the topology when `master`
    /// is beyond its [`capacity`](TopologyConfig::capacity).
    pub fn check_master(&self, master: MasterId) -> Result<(), Diagnostic> {
        let capacity = self.capacity();
        if (master.0 as usize) < capacity {
            return Ok(());
        }
        Err(Diagnostic::error(
            CODE_TOPOLOGY_CAPACITY,
            format!(
                "master {} exceeds the {} topology's capacity of {capacity} master(s)",
                master.0,
                self.topology.spec_string()
            ),
        )
        .at(Locus::Field("soc.topology")))
    }
}

impl From<Topology> for TopologyConfig {
    /// `topology` under the inert default protocol.
    fn from(topology: Topology) -> Self {
        TopologyConfig {
            topology,
            protocol: ProtocolConfig::default(),
        }
    }
}

/// One data channel (a set of wires that serializes transfers). The
/// single place the contention-free `infinite_bandwidth` grant path is
/// implemented: every stage calls [`schedule`](DataChannel::schedule)
/// instead of special-casing the mode itself.
#[derive(Debug, Clone, Copy, Default)]
struct DataChannel {
    /// Completion time of the transfer currently owning the wires.
    busy_until: u64,
}

impl DataChannel {
    /// Schedule a transfer that becomes ready at `ready` and occupies the
    /// wires for `xfer` cycles; returns its completion time. Under
    /// `infinite` bandwidth the wires never serialize.
    fn schedule(&mut self, ready: u64, xfer: u64, infinite: bool) -> u64 {
        if infinite {
            ready + xfer
        } else {
            let start = ready.max(self.busy_until);
            self.busy_until = start + xfer;
            start + xfer
        }
    }
}

/// A queued request awaiting a grant.
#[derive(Debug, Clone, Copy)]
struct Pending {
    token: Token,
    /// The token its completion reports: the protocol stage's parent
    /// transaction, else the request's own token.
    parent: Token,
    master: MasterId,
    addr: u64,
    bytes: u32,
    /// Earliest cycle this request may (re-)arbitrate (NACK backoff, or
    /// bridge arrival time).
    not_before: u64,
    /// Grant attempts already NACKed for this request.
    retries: u32,
}

/// A granted request awaiting completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct InFlight {
    done: u64,
    token: Token,
    parent: Token,
    master: MasterId,
    /// Index of the grant-depth counter it holds (crossbar slave, mesh
    /// master, else 0).
    tag: usize,
}

impl Ord for InFlight {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse order: BinaryHeap is a max-heap, we want earliest first.
        other
            .done
            .cmp(&self.done)
            .then(other.token.cmp(&self.token))
    }
}

impl PartialOrd for InFlight {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Grow per-master state vectors to cover `master`.
pub(crate) fn ensure_len<T: Default + Clone>(v: &mut Vec<T>, master: MasterId) {
    let want = master.0 as usize + 1;
    if v.len() < want {
        v.resize(want, T::default());
    }
}

/// Round-robin arbitration over `n` queues, the `i`-th being
/// `queues[slot(i)]`, starting at `start`: pop the first head that is
/// `eligible`, past its backoff, and not NACKed; return its position.
/// Empty, ineligible and backing-off queues are skipped without a fault
/// draw, so the NACK-draw sequence depends only on the heads that
/// contend, never on how many queues exist.
fn arbitrate(
    queues: &mut [VecDeque<Pending>],
    n: usize,
    start: usize,
    slot: impl Fn(usize) -> usize,
    cycle: u64,
    mut nack: Option<&mut NackInjector>,
    eligible: impl Fn(usize, &Pending) -> bool,
) -> Option<(usize, Pending)> {
    for k in 0..n {
        let i = (start + k) % n;
        let m = slot(i);
        let queue = &mut queues[m];
        let Some(head) = queue.front_mut() else {
            continue;
        };
        if head.not_before > cycle || !eligible(m, head) {
            continue;
        }
        // A NACKed request holds its (in-order) queue until backoff
        // elapses; other queues still arbitrate.
        if let Some(backoff) = nack.as_deref_mut().and_then(|f| f.nack(head.retries)) {
            head.not_before = cycle + backoff;
            head.retries += 1;
            continue;
        }
        return queue.pop_front().map(|p| (i, p));
    }
    None
}

/// The memory side every route ends in: the grant step, the DRAM, the
/// final data channels and the in-flight heap.
#[derive(Debug)]
struct Memory {
    infinite: bool,
    bytes_per_cycle: u64,
    dram: Dram,
    grant_faults: Option<FaultInjector>,
    /// One channel per crossbar slave, else the one channel in front of
    /// DRAM.
    channels: Vec<DataChannel>,
    /// Granted-but-incomplete requests per [`InFlight::tag`].
    scheduled: Vec<usize>,
    in_flight: BinaryHeap<InFlight>,
    stats: BusStats,
}

impl Memory {
    fn transfer_cycles(&self, bytes: u32) -> u64 {
        u64::from(bytes).div_ceil(self.bytes_per_cycle)
    }

    /// Whether `tag` may take another grant: two in flight, so the next
    /// request's DRAM access hides under the current data phase; with
    /// infinite bandwidth there is no data phase to contend for.
    fn has_room(&self, tag: usize) -> bool {
        self.infinite || self.scheduled[tag] < 2
    }

    /// Grant `p`, ready to access DRAM at `ready`, onto `channel`.
    fn grant(&mut self, p: Pending, ready: u64, channel: usize, tag: usize) {
        let extra = self
            .grant_faults
            .as_mut()
            .map_or(0, FaultInjector::extra_cycles);
        let lat = self.dram.access(p.addr) + extra;
        let xfer = self.transfer_cycles(p.bytes);
        // The data phase may start only when the wires free up; the DRAM
        // access overlaps the previous transfer (one-deep pipelining).
        let done = self.channels[channel].schedule(ready + lat, xfer, self.infinite);
        self.stats.bytes += u64::from(p.bytes);
        self.stats.add_master_bytes(p.master, u64::from(p.bytes));
        self.stats.busy_cycles += xfer;
        self.scheduled[tag] += 1;
        self.in_flight.push(InFlight {
            done,
            token: p.token,
            parent: p.parent,
            master: p.master,
            tag,
        });
    }
}

/// Crossbar address-interleave granularity: DRAM-row sized, so one
/// slave's stream keeps its row open.
const INTERLEAVE_BYTES: u64 = 4096;

/// What differs between topologies: the arbiters in front of
/// [`Memory`] and any stage between them.
#[derive(Debug)]
enum Route {
    /// One round-robin arbiter per slave port (cursor per port). The
    /// shared bus has one port; a crossbar interleaves addresses across
    /// `radix` ports every [`INTERLEAVE_BYTES`].
    Ports { rr: Vec<usize> },
    /// Master `m` arbitrates on local bus `m % clusters`, crosses the
    /// bridge, then arbitrates on the global bus in front of DRAM.
    TwoLevel {
        bridge_cycles: u64,
        local_rr: Vec<usize>,
        local: Vec<DataChannel>,
        /// Per-cluster bridged requests; `not_before` is the bridge
        /// arrival time.
        bridged: Vec<VecDeque<Pending>>,
        global_rr: usize,
    },
    /// Store-and-forward over the XY route to the controller at node 0.
    /// That route fixes each node's next hop (west, else north), so
    /// `links[node]` is the node's one outgoing link.
    Mesh {
        cols: usize,
        hop_cycles: u64,
        link_bytes: u64,
        links: Vec<DataChannel>,
        rr: usize,
    },
}

impl Route {
    /// Grant every request the topology admits at `cycle`.
    fn grant(
        &mut self,
        queues: &mut [VecDeque<Pending>],
        mut nack: Option<&mut NackInjector>,
        mem: &mut Memory,
        cycle: u64,
    ) {
        let n = queues.len();
        match self {
            Route::Ports { rr } => {
                let ports = rr.len();
                for (s, cursor) in rr.iter_mut().enumerate() {
                    while mem.has_room(s) {
                        let on_port = |_, p: &Pending| {
                            ports == 1 || (p.addr / INTERLEAVE_BYTES) % ports as u64 == s as u64
                        };
                        let Some((i, p)) = arbitrate(
                            queues,
                            n,
                            *cursor,
                            |i| i,
                            cycle,
                            nack.as_deref_mut(),
                            on_port,
                        ) else {
                            break;
                        };
                        *cursor = (i + 1) % n;
                        mem.grant(p, cycle, s, s);
                    }
                }
            }
            Route::TwoLevel {
                bridge_cycles,
                local_rr,
                local,
                bridged,
                global_rr,
            } => {
                let clusters = local_rr.len();
                // Local buses drain onto the bridge; each local channel
                // serializes its transfers, so granting everything
                // eligible is timing-safe.
                for c in 0..clusters {
                    let members = (n + clusters - 1 - c) / clusters;
                    let slot = |i: usize| c + i * clusters;
                    while let Some((i, mut p)) = arbitrate(
                        queues,
                        members,
                        local_rr[c],
                        slot,
                        cycle,
                        nack.as_deref_mut(),
                        |_, _| true,
                    ) {
                        local_rr[c] = (i + 1) % members;
                        let xfer = mem.transfer_cycles(p.bytes);
                        p.not_before =
                            local[c].schedule(cycle, xfer, mem.infinite) + *bridge_cycles;
                        p.retries = 0;
                        bridged[c].push_back(p);
                    }
                }
                while mem.has_room(0) {
                    let Some((c, p)) = arbitrate(
                        bridged,
                        clusters,
                        *global_rr,
                        |c| c,
                        cycle,
                        None,
                        |_, _| true,
                    ) else {
                        break;
                    };
                    *global_rr = (c + 1) % clusters;
                    mem.grant(p, cycle, 0, 0);
                }
            }
            Route::Mesh {
                cols,
                hop_cycles,
                link_bytes,
                links,
                rr,
            } => {
                while let Some((m, p)) = arbitrate(
                    queues,
                    n,
                    *rr,
                    |m| m,
                    cycle,
                    nack.as_deref_mut(),
                    |m, _| mem.has_room(m),
                ) {
                    *rr = (m + 1) % n;
                    let link_xfer = *hop_cycles + u64::from(p.bytes).div_ceil(*link_bytes);
                    let (mut node, mut t) = (m + 1, cycle);
                    while node != 0 {
                        t = links[node].schedule(t, link_xfer, mem.infinite);
                        node -= if node % *cols > 0 { 1 } else { *cols };
                    }
                    mem.grant(p, t, 0, m);
                }
            }
        }
    }

    /// Requests between the local buses and the global bus.
    fn bridged(&self) -> usize {
        match self {
            Route::TwoLevel { bridged, .. } => bridged.iter().map(VecDeque::len).sum(),
            Route::Ports { .. } | Route::Mesh { .. } => 0,
        }
    }
}

/// The protocol stage: burst splitting and per-master outstanding caps.
/// A parent transaction completes when its last burst does.
#[derive(Debug)]
struct Protocol {
    cfg: ProtocolConfig,
    next_parent: Token,
    /// Per-master bursts held back by the outstanding cap:
    /// (parent, addr, bytes).
    waiting: Vec<VecDeque<(Token, u64, u32)>>,
    /// Per-master bursts issued into the fabric.
    issued: Vec<u32>,
    /// Parents with bursts outstanding, and how many.
    open: Vec<(Token, u32)>,
}

impl Protocol {
    /// Split a `bytes` transaction at `addr` into waiting bursts; its
    /// parent token.
    fn split(&mut self, master: MasterId, addr: u64, bytes: u32) -> Token {
        let parent = self.next_parent;
        self.next_parent += 1;
        let burst = match self.cfg.max_burst_bytes {
            0 => bytes,
            b => b,
        };
        let (mut offset, mut children) = (0u32, 0u32);
        while offset < bytes {
            let b = (bytes - offset).min(burst);
            self.waiting[master.0 as usize].push_back((parent, addr + u64::from(offset), b));
            offset += b;
            children += 1;
        }
        self.open.push((parent, children));
        parent
    }

    /// Retire one burst of `f.parent`; whether the parent is complete.
    fn burst_done(&mut self, f: &InFlight) -> bool {
        let m = f.master.0 as usize;
        self.issued[m] = self.issued[m].saturating_sub(1);
        let Some(i) = self.open.iter().position(|&(t, _)| t == f.parent) else {
            return false;
        };
        self.open[i].1 -= 1;
        if self.open[i].1 > 0 {
            return false;
        }
        self.open.swap_remove(i);
        true
    }
}

/// The SoC interconnect: every off-accelerator byte (DMA bursts, cache
/// fills, writebacks, background traffic) crosses one `Fabric` and the
/// [`Dram`] behind it, whatever its [`Topology`].
///
/// Cycle-stepped: call [`tick`](Fabric::tick) once per cycle with a
/// non-decreasing cycle number, then drain completions. Arbitration
/// queues grow as masters register, and granting is invariant to the
/// number of provisioned queues (empty queues are skipped), so a
/// 4-master SoC behaves bit-identically however many queues exist.
#[derive(Debug)]
pub struct Fabric {
    topo: TopologyConfig,
    /// Per-master requests awaiting their first grant.
    queues: Vec<VecDeque<Pending>>,
    route: Route,
    memory: Memory,
    nack_faults: Option<NackInjector>,
    /// `None` under an inert [`ProtocolConfig`].
    protocol: Option<Protocol>,
    next_token: Token,
    /// Requests retired this tick, completed once the grants are done.
    retired: Vec<InFlight>,
    completions: Vec<BusCompletion>,
}

impl Fabric {
    /// Build the fabric `topo` names over the given bus and DRAM
    /// configurations.
    ///
    /// # Errors
    ///
    /// Returns the first finding of [`BusConfig::check`], of `topo`'s
    /// `L0310` structural check, or of the DRAM configuration's check, in
    /// that order.
    pub fn try_new(
        bus: BusConfig,
        dram: DramConfig,
        topo: TopologyConfig,
    ) -> Result<Self, Diagnostic> {
        crate::first_error(bus.check())?;
        crate::first_error(topo.check())?;
        let dram = Dram::try_new(dram)?;
        // (route, final channels, grant-depth counters, queues provisioned
        // up front). The shared bus provisions the pre-named masters;
        // the other topologies grow their queues on registration only.
        let (route, channels, tags, provisioned) = match topo.topology {
            Topology::SharedBus => (Route::Ports { rr: vec![0] }, 1, 1, MasterId::COUNT),
            Topology::Crossbar { radix } => {
                let radix = radix as usize;
                (Route::Ports { rr: vec![0; radix] }, radix, radix, 0)
            }
            Topology::TwoLevelBus {
                clusters,
                bridge_cycles,
            } => {
                let clusters = clusters as usize;
                let route = Route::TwoLevel {
                    bridge_cycles: u64::from(bridge_cycles),
                    local_rr: vec![0; clusters],
                    local: vec![DataChannel::default(); clusters],
                    bridged: vec![VecDeque::new(); clusters],
                    global_rr: 0,
                };
                (route, 1, 1, 0)
            }
            Topology::MeshNoc {
                cols,
                hop_cycles,
                link_bits,
                ..
            } => {
                let route = Route::Mesh {
                    cols: cols as usize,
                    hop_cycles: u64::from(hop_cycles),
                    link_bytes: u64::from(link_bits / 8).max(1),
                    // Hops only descend in node index: no node past the last
                    // master's ever forwards.
                    links: vec![DataChannel::default(); topo.capacity() + 1],
                    rr: 0,
                };
                (route, 1, topo.capacity(), 0)
            }
        };
        let protocol = (!topo.protocol.is_inert()).then(|| Protocol {
            cfg: topo.protocol,
            next_parent: 0,
            waiting: vec![VecDeque::new(); provisioned],
            issued: vec![0; provisioned],
            open: Vec::new(),
        });
        Ok(Fabric {
            topo,
            queues: vec![VecDeque::new(); provisioned],
            route,
            memory: Memory {
                infinite: bus.infinite_bandwidth,
                bytes_per_cycle: u64::from(bus.width_bits / 8).max(1),
                dram,
                grant_faults: None,
                channels: vec![DataChannel::default(); channels],
                scheduled: vec![0; tags],
                in_flight: BinaryHeap::new(),
                stats: BusStats::default(),
            },
            nack_faults: None,
            protocol,
            next_token: 0,
            retired: Vec::new(),
            completions: Vec::new(),
        })
    }

    /// Register `master`, provisioning its arbitration state. Called
    /// implicitly by the first request; explicit registration surfaces
    /// capacity violations early.
    ///
    /// # Errors
    ///
    /// Returns an `L0311` diagnostic when the master id exceeds the
    /// topology's capacity (e.g. a mesh with too few nodes).
    pub fn register_master(&mut self, master: MasterId) -> Result<(), Diagnostic> {
        self.topo.check_master(master)?;
        ensure_len(&mut self.queues, master);
        if let Some(p) = self.protocol.as_mut() {
            ensure_len(&mut p.waiting, master);
            ensure_len(&mut p.issued, master);
        }
        Ok(())
    }

    /// Enqueue a transaction of `bytes` at `addr` on behalf of `master`.
    /// Returns a token matched by a later [`BusCompletion`]. `write` only
    /// affects statistics; timing is symmetric.
    ///
    /// # Errors
    ///
    /// `L0215` for a zero-byte request, which would otherwise occupy an
    /// arbitration slot forever; `L0311` for a master beyond the
    /// topology's capacity.
    pub fn try_request(
        &mut self,
        master: MasterId,
        addr: u64,
        bytes: u32,
        write: bool,
    ) -> Result<Token, Diagnostic> {
        let _ = write;
        if bytes == 0 {
            return Err(Diagnostic::error(
                "L0215",
                format!(
                    "zero-byte bus request at {addr:#x} from master {}",
                    master.0
                ),
            ));
        }
        self.register_master(master)?;
        self.memory.stats.requests += 1;
        let Some(p) = self.protocol.as_mut() else {
            let token = self.next_token;
            self.enqueue(token, master, addr, bytes);
            return Ok(token);
        };
        let parent = p.split(master, addr, bytes);
        self.pump(master);
        Ok(parent)
    }

    /// Queue a request whose completion reports `parent`.
    fn enqueue(&mut self, parent: Token, master: MasterId, addr: u64, bytes: u32) {
        self.queues[master.0 as usize].push_back(Pending {
            token: self.next_token,
            parent,
            master,
            addr,
            bytes,
            not_before: 0,
            retries: 0,
        });
        self.next_token += 1;
    }

    /// Issue `master`'s waiting bursts while its outstanding cap allows.
    fn pump(&mut self, master: MasterId) {
        let m = master.0 as usize;
        while let Some(p) = self.protocol.as_mut() {
            if p.cfg.max_outstanding != 0 && p.issued[m] >= p.cfg.max_outstanding {
                return;
            }
            let Some((parent, addr, bytes)) = p.waiting[m].pop_front() else {
                return;
            };
            p.issued[m] += 1;
            self.enqueue(parent, master, addr, bytes);
        }
    }

    /// Advance to `cycle`: retire finished transfers, grant new ones,
    /// then complete the retired transactions.
    pub fn tick(&mut self, cycle: u64) {
        let mem = &mut self.memory;
        while mem.in_flight.peek().is_some_and(|f| f.done <= cycle) {
            if let Some(f) = mem.in_flight.pop() {
                mem.scheduled[f.tag] -= 1;
                self.retired.push(f);
            }
        }
        self.route
            .grant(&mut self.queues, self.nack_faults.as_mut(), mem, cycle);
        for i in 0..self.retired.len() {
            let f = self.retired[i];
            if let Some(p) = self.protocol.as_mut() {
                let done = p.burst_done(&f);
                self.pump(f.master);
                if !done {
                    continue;
                }
            }
            self.completions.push(BusCompletion {
                token: f.parent,
                master: f.master,
                at: f.done,
            });
        }
        self.retired.clear();
    }

    /// Take the completions observed since the last drain, keeping the
    /// storage for the next tick.
    pub fn drain_completions(&mut self) -> std::vec::Drain<'_, BusCompletion> {
        self.completions.drain(..)
    }

    /// Whether any request is queued or in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.memory.in_flight.is_empty()
            && self.queues.iter().all(VecDeque::is_empty)
            && self.route.bridged() == 0
            && self.protocol.as_ref().is_none_or(|p| p.open.is_empty())
    }

    /// Arm fault injection for this fabric and its DRAM. Injectors must
    /// be fresh (constructed for this run) so the draw sequence is
    /// deterministic; passing a default [`BusFaults`] restores the exact
    /// unperturbed behavior.
    pub fn set_faults(&mut self, faults: BusFaults) {
        self.memory.grant_faults = faults.grant;
        self.nack_faults = faults.nack;
        self.memory.dram.set_faults(faults.dram);
    }

    /// Fabric statistics so far (including per-master byte counts).
    #[must_use]
    pub fn stats(&self) -> BusStats {
        self.memory.stats.clone()
    }

    /// Queued (not yet granted) requests per master, including bursts
    /// the protocol stage holds back — forensic state for deadlock
    /// snapshots.
    #[must_use]
    pub fn queue_depths(&self) -> Vec<usize> {
        let waiting = |m: usize| self.protocol.as_ref().map_or(0, |p| p.waiting[m].len());
        (0..self.queues.len())
            .map(|m| self.queues[m].len() + waiting(m))
            .collect()
    }

    /// Requests granted into the fabric but not yet complete.
    #[must_use]
    pub fn in_flight_count(&self) -> usize {
        self.memory.in_flight.len() + self.route.bridged()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(topo: impl Into<TopologyConfig>) -> Fabric {
        Fabric::try_new(BusConfig::default(), DramConfig::default(), topo.into()).unwrap()
    }

    fn drive(ic: &mut Fabric, max_cycles: u64) -> Vec<BusCompletion> {
        let mut all = Vec::new();
        for cycle in 0..max_cycles {
            ic.tick(cycle);
            all.extend(ic.drain_completions());
            if ic.is_idle() {
                break;
            }
        }
        all
    }

    fn burst_stream(ic: &mut Fabric, masters: usize, per_master: u64) {
        for m in 0..masters {
            for i in 0..per_master {
                // Distinct 4 KB rows per master so crossbar slaves differ.
                let addr = ((m as u64) << 24) | (i * 4096);
                ic.try_request(MasterId(m as u8), addr, 64, false).unwrap();
            }
        }
    }

    #[test]
    fn topology_spec_strings_round_trip() {
        for t in [
            Topology::SharedBus,
            Topology::Crossbar { radix: 4 },
            Topology::TwoLevelBus {
                clusters: 2,
                bridge_cycles: 8,
            },
            Topology::MeshNoc {
                cols: 3,
                rows: 3,
                hop_cycles: 2,
                link_bits: 64,
            },
        ] {
            assert_eq!(Topology::parse(&t.spec_string()), Ok(t));
        }
        assert!(Topology::parse("warp-drive").is_err());
        assert!(Topology::parse("mesh:banana").is_err());
    }

    #[test]
    fn invalid_topologies_are_l0310() {
        for bad in [
            Topology::Crossbar { radix: 0 },
            Topology::Crossbar { radix: u32::MAX },
            Topology::TwoLevelBus {
                clusters: 0,
                bridge_cycles: 0,
            },
            Topology::TwoLevelBus {
                clusters: 257,
                bridge_cycles: 4,
            },
            Topology::MeshNoc {
                cols: 0,
                rows: 3,
                hop_cycles: 1,
                link_bits: 32,
            },
            Topology::MeshNoc {
                cols: 1,
                rows: 1,
                hop_cycles: 1,
                link_bits: 32,
            },
            Topology::MeshNoc {
                cols: 2,
                rows: 2,
                hop_cycles: 1,
                link_bits: 4,
            },
        ] {
            let cfg = TopologyConfig {
                topology: bad,
                protocol: ProtocolConfig::default(),
            };
            assert!(cfg.check().has_code(CODE_BAD_TOPOLOGY), "{bad:?}");
            assert!(Fabric::try_new(BusConfig::default(), DramConfig::default(), cfg).is_err());
        }
    }

    #[test]
    fn every_topology_serves_a_single_request() {
        for topo in [
            Topology::SharedBus,
            Topology::Crossbar { radix: 4 },
            Topology::TwoLevelBus {
                clusters: 2,
                bridge_cycles: 4,
            },
            Topology::MeshNoc {
                cols: 2,
                rows: 2,
                hop_cycles: 1,
                link_bits: 32,
            },
        ] {
            let mut ic = fabric(topo);
            let token = ic.try_request(MasterId::DMA, 0x1000, 64, false).unwrap();
            let done = drive(&mut ic, 10_000);
            assert_eq!(done.len(), 1, "{topo:?}");
            assert_eq!(done[0].token, token);
            assert!(ic.is_idle());
            assert_eq!(ic.stats().requests, 1);
            assert_eq!(ic.stats().bytes, 64);
        }
    }

    #[test]
    fn crossbar_parallelizes_disjoint_streams() {
        let mut shared = fabric(Topology::SharedBus);
        let mut xbar = fabric(Topology::Crossbar { radix: 4 });
        burst_stream(&mut shared, 4, 16);
        burst_stream(&mut xbar, 4, 16);
        let s = drive(&mut shared, 100_000);
        let x = drive(&mut xbar, 100_000);
        assert_eq!(s.len(), 64);
        assert_eq!(x.len(), 64);
        let s_last = s.iter().map(|c| c.at).max().unwrap();
        let x_last = x.iter().map(|c| c.at).max().unwrap();
        assert!(
            x_last * 2 < s_last,
            "4 slaves should beat one shared channel: {x_last} vs {s_last}"
        );
    }

    #[test]
    fn two_level_bridge_adds_latency_but_keeps_every_completion() {
        let mut tl = fabric(Topology::TwoLevelBus {
            clusters: 2,
            bridge_cycles: 20,
        });
        let t = tl.try_request(MasterId::DMA, 0, 64, false).unwrap();
        let done = drive(&mut tl, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, t);
        // Shared-bus single-request time is 26 (10 miss + 16 xfer); the
        // two-level path adds the local transfer and the 20-cycle bridge.
        assert!(
            done[0].at > 26 + 20,
            "bridge must cost cycles: {}",
            done[0].at
        );
    }

    #[test]
    fn mesh_distance_costs_hops() {
        let mk = || {
            fabric(Topology::MeshNoc {
                cols: 3,
                rows: 3,
                hop_cycles: 5,
                link_bits: 32,
            })
        };
        // Master 0 sits at node 1 (one hop); master 6 at node 7 (3 hops).
        let mut near = mk();
        near.try_request(MasterId(0), 0, 64, false).unwrap();
        let near_done = drive(&mut near, 10_000)[0].at;
        let mut far = mk();
        far.try_request(MasterId(6), 0, 64, false).unwrap();
        let far_done = drive(&mut far, 10_000)[0].at;
        assert!(
            far_done >= near_done + 2 * 5,
            "3 hops vs 1 hop at 5 cycles/hop: {near_done} vs {far_done}"
        );
    }

    #[test]
    fn mesh_capacity_is_grid_minus_controller() {
        let topo = Topology::MeshNoc {
            cols: 2,
            rows: 2,
            hop_cycles: 1,
            link_bits: 32,
        };
        assert_eq!(TopologyConfig::from(topo).capacity(), 3);
        let mut mesh = fabric(topo);
        assert!(mesh.register_master(MasterId(2)).is_ok());
        let err = mesh.register_master(MasterId(3)).unwrap_err();
        assert_eq!(err.code, CODE_TOPOLOGY_CAPACITY);
        assert!(mesh.try_request(MasterId(9), 0, 64, false).is_err());
    }

    #[test]
    fn capacity_errors_name_the_configured_topology() {
        let mut mesh = fabric(Topology::MeshNoc {
            cols: 3,
            rows: 3,
            hop_cycles: 1,
            link_bits: 36,
        });
        let err = mesh.register_master(MasterId(8)).unwrap_err();
        assert_eq!(err.code, CODE_TOPOLOGY_CAPACITY);
        assert!(err.message.contains("mesh:3x3:1:36"), "{}", err.message);
    }

    #[test]
    fn protocol_layer_splits_bursts_and_caps_outstanding() {
        let topo = TopologyConfig {
            topology: Topology::SharedBus,
            protocol: ProtocolConfig {
                max_burst_bytes: 64,
                max_outstanding: 2,
            },
        };
        let mut ic = fabric(topo);
        let parent = ic.try_request(MasterId::DMA, 0, 4096, false).unwrap();
        // 4096 / 64 = 64 bursts, at most 2 in the fabric at a time.
        assert!(ic.in_flight_count() <= 2);
        let done = drive(&mut ic, 100_000);
        assert_eq!(done.len(), 1, "one parent completion for 64 bursts");
        assert_eq!(done[0].token, parent);
        let s = ic.stats();
        assert_eq!(s.requests, 1, "parent-level request count");
        assert_eq!(s.bytes, 4096);
        assert!(ic.is_idle());
    }

    #[test]
    fn infinite_bandwidth_is_shared_by_all_models() {
        for topo in [
            Topology::Crossbar { radix: 2 },
            Topology::TwoLevelBus {
                clusters: 2,
                bridge_cycles: 0,
            },
            Topology::MeshNoc {
                cols: 2,
                rows: 2,
                hop_cycles: 0,
                link_bits: 512,
            },
        ] {
            let mut ic = Fabric::try_new(
                BusConfig {
                    infinite_bandwidth: true,
                    ..BusConfig::default()
                },
                DramConfig::default(),
                topo.into(),
            )
            .unwrap();
            for i in 0..8u64 {
                ic.try_request(MasterId(0), i * 64, 64, false).unwrap();
            }
            let done = drive(&mut ic, 1000);
            assert_eq!(done.len(), 8);
            let max = done.iter().map(|c| c.at).max().unwrap();
            // Serialized, 8 × 16-cycle transfers would finish past cycle
            // 128; without contention each pays only its own latency and
            // per-stage transfer time.
            assert!(
                max <= 60,
                "{topo:?}: infinite bw should not serialize: {max}"
            );
        }
    }

    #[test]
    fn faults_apply_to_every_topology() {
        use aladdin_faults::{FaultPlan, FaultSpec, NackSpec};
        let plan = FaultPlan {
            seed: 11,
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
        for topo in [
            Topology::Crossbar { radix: 2 },
            Topology::TwoLevelBus {
                clusters: 2,
                bridge_cycles: 2,
            },
            Topology::MeshNoc {
                cols: 2,
                rows: 2,
                hop_cycles: 1,
                link_bits: 32,
            },
        ] {
            let mk = |faulted: bool| {
                let mut ic = fabric(topo);
                if faulted {
                    ic.set_faults(BusFaults::from_plan(&plan));
                }
                burst_stream(&mut ic, 2, 8);
                drive(&mut ic, 1_000_000)
            };
            let plain = mk(false);
            let faulted = mk(true);
            assert_eq!(plain.len(), 16, "{topo:?}");
            assert_eq!(faulted.len(), 16, "{topo:?}: faults must not lose requests");
            let p = plain.iter().map(|c| c.at).max().unwrap();
            let f = faulted.iter().map(|c| c.at).max().unwrap();
            assert!(f > p, "{topo:?}: heavy injection must cost cycles");
            assert_eq!(mk(true), faulted, "{topo:?}: same seed, same schedule");
        }
    }
}
