//! Declarative sweep campaigns: the TOML schema, its typed spec structs,
//! and expansion into concrete design points.
//!
//! A campaign file describes either a *sweep* (kernels × memory systems ×
//! a [`DesignSpace`]) or a *job set* (a heterogeneous multi-accelerator
//! SoC, optionally swept over a launch stagger). [`CampaignSpec`] is the
//! canonical in-memory form: [`CampaignSpec::from_toml`] parses and
//! validates, [`CampaignSpec::to_toml`] serializes canonically (the two
//! round-trip), and [`CampaignSpec::expand`] turns the spec into a
//! [`CampaignPlan`] — the ordered, validated point list the runners and
//! `soclint campaign` share.
//!
//! Diagnostic codes: `L0260` malformed TOML, `L0261` unknown keys or
//! ill-typed values, `L0262` unknown kernel/memory/preset names, `L0263`
//! empty or fully-rejected campaigns, `L0264` expansion summaries (info).

use aladdin_accel::{DatapathConfig, LaneSync};
use aladdin_core::{
    AcceleratorJob, FaultPlan, MasterId, MemKind, SimHarness, SocConfig, Topology, TrafficConfig,
    Watchdog,
};
use aladdin_dse::{DesignSpace, PointSpec};
use aladdin_ir::{Diagnostic, Locus, Report};
use aladdin_lint::lint_design;
use aladdin_mem::Clock;
use aladdin_workloads::by_name;
use std::fmt;

use crate::cli::parse_mem_spec;
use crate::toml::{self, Table, Value};

/// Which base [`DesignSpace`] a campaign sweeps (its axes can be
/// overridden individually in `[space]`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SpacePreset {
    /// [`DesignSpace::quick`] — a tiny space for smoke runs (default).
    #[default]
    Quick,
    /// [`DesignSpace::standard`] — the trimmed full-suite space.
    Standard,
    /// [`DesignSpace::paper`] — the full Figure 3 table.
    Paper,
}

/// The `[space]` section: a preset plus per-axis overrides.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SpaceSpec {
    /// Base preset the axes start from.
    pub preset: SpacePreset,
    /// Datapath lane counts (overrides the preset's axis).
    pub lanes: Option<Vec<u32>>,
    /// Scratchpad partition factors.
    pub partitions: Option<Vec<u32>>,
    /// Cache sizes in bytes.
    pub cache_sizes: Option<Vec<u64>>,
    /// Cache line sizes in bytes.
    pub cache_lines: Option<Vec<u32>>,
    /// Cache port counts.
    pub cache_ports: Option<Vec<u32>>,
    /// Cache associativities.
    pub cache_assocs: Option<Vec<u32>>,
    /// Interconnect topologies, in the shared `--topology` spec-string
    /// grammar (`shared-bus`, `crossbar:RADIX`, …).
    pub topologies: Option<Vec<Topology>>,
}

impl SpaceSpec {
    /// The concrete [`DesignSpace`] these axes describe.
    #[must_use]
    pub fn design_space(&self) -> DesignSpace {
        let mut space = match self.preset {
            SpacePreset::Quick => DesignSpace::quick(),
            SpacePreset::Standard => DesignSpace::standard(),
            SpacePreset::Paper => DesignSpace::paper(),
        };
        set(&mut space.lanes, &self.lanes);
        set(&mut space.partitions, &self.partitions);
        set(&mut space.cache_sizes, &self.cache_sizes);
        set(&mut space.cache_lines, &self.cache_lines);
        set(&mut space.cache_ports, &self.cache_ports);
        set(&mut space.cache_assocs, &self.cache_assocs);
        set(&mut space.topologies, &self.topologies);
        space
    }
}

/// The `[datapath]` section: the base datapath every point starts from.
/// In a sweep campaign the space axes override `lanes`/`partition` per
/// point; in a job-set campaign these are the per-job defaults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DatapathSpec {
    /// Datapath lanes.
    pub lanes: Option<u32>,
    /// Scratchpad partition factor.
    pub partition: Option<u32>,
    /// Read/write ports per scratchpad bank.
    pub ports_per_bank: Option<u32>,
    /// Inter-lane synchronization: `"barrier"` or `"free"`.
    pub sync: Option<LaneSync>,
}

impl DatapathSpec {
    /// The validated base [`DatapathConfig`].
    ///
    /// # Errors
    ///
    /// Returns [`DatapathConfig::check`]'s `L0201` report on zero-valued
    /// parameters.
    pub fn apply(&self) -> Result<DatapathConfig, Report> {
        let mut dp = DatapathConfig::default();
        set(&mut dp.lanes, &self.lanes);
        set(&mut dp.partition, &self.partition);
        set(&mut dp.ports_per_bank, &self.ports_per_bank);
        set(&mut dp.sync, &self.sync);
        checked(dp, dp.check())
    }
}

/// The `[soc]` section: overrides applied to the paper's default
/// platform, one optional field per supported knob.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct SocSpec {
    /// `[soc.clock] mhz`.
    pub clock_mhz: Option<f64>,
    /// `[soc.bus] width_bits`.
    pub bus_width_bits: Option<u32>,
    /// `[soc.bus] infinite_bandwidth`.
    pub bus_infinite_bandwidth: Option<bool>,
    /// `[soc.cache] size_bytes`.
    pub cache_size_bytes: Option<u64>,
    /// `[soc.cache] line_bytes`.
    pub cache_line_bytes: Option<u32>,
    /// `[soc.cache] assoc`.
    pub cache_assoc: Option<u32>,
    /// `[soc.cache] ports`.
    pub cache_ports: Option<u32>,
    /// `[soc.cache] mshrs`.
    pub cache_mshrs: Option<usize>,
    /// `[soc.cache] hit_latency`.
    pub cache_hit_latency: Option<u64>,
    /// `[soc.tlb] entries`.
    pub tlb_entries: Option<usize>,
    /// `[soc.tlb] page_bytes`.
    pub tlb_page_bytes: Option<u64>,
    /// `[soc.tlb] miss_cycles`.
    pub tlb_miss_cycles: Option<u64>,
    /// `[soc.dram] banks`.
    pub dram_banks: Option<usize>,
    /// `[soc.dram] row_bytes`.
    pub dram_row_bytes: Option<u64>,
    /// `[soc.dma] setup_cycles`.
    pub dma_setup_cycles: Option<u64>,
    /// `[soc.dma] chunk_bytes`.
    pub dma_chunk_bytes: Option<u64>,
    /// `[soc.dma] burst_bytes`.
    pub dma_burst_bytes: Option<u32>,
    /// `[soc] ready_bits_granule`.
    pub ready_bits_granule: Option<u64>,
    /// `[soc] invoke_cycles`.
    pub invoke_cycles: Option<u64>,
    /// `[soc.traffic] period` (arms background traffic).
    pub traffic_period: Option<u64>,
    /// `[soc.traffic] bytes` (defaults to 64 when only `period` is set;
    /// setting it without `period` is an error).
    pub traffic_bytes: Option<u32>,
    /// `[soc.topology] spec`: the interconnect topology, in the shared
    /// `--topology` spec-string grammar.
    pub topology: Option<Topology>,
    /// `[soc.topology] max_burst_bytes`: AXI-like burst splitting (`0`
    /// disables).
    pub topology_max_burst_bytes: Option<u32>,
    /// `[soc.topology] max_outstanding`: per-master outstanding-burst cap
    /// (`0` means unlimited).
    pub topology_max_outstanding: Option<u32>,
}

impl SocSpec {
    /// The validated [`SocConfig`] these overrides describe.
    ///
    /// # Errors
    ///
    /// Returns the same `L021x` report as [`SocConfig::check`] when the
    /// overridden platform is inconsistent, and `L0261` for traffic
    /// `bytes` without a `period`.
    pub fn apply(&self) -> Result<SocConfig, Report> {
        let mut cfg = SocConfig::default();
        if let Some(mhz) = self.clock_mhz {
            cfg.clock =
                Clock::try_from_mhz(mhz).map_err(|d| [d].into_iter().collect::<Report>())?;
        }
        if self.traffic_period.is_none() && self.traffic_bytes.is_some() {
            let d = Diagnostic::error(
                "L0261",
                "`soc.traffic.bytes` needs `soc.traffic.period`: background traffic \
                 runs only with a period",
            );
            return Err([d.at(Locus::Field("soc"))].into_iter().collect());
        }
        set(&mut cfg.bus.width_bits, &self.bus_width_bits);
        set(
            &mut cfg.bus.infinite_bandwidth,
            &self.bus_infinite_bandwidth,
        );
        set(&mut cfg.cache.size_bytes, &self.cache_size_bytes);
        set(&mut cfg.cache.line_bytes, &self.cache_line_bytes);
        set(&mut cfg.cache.assoc, &self.cache_assoc);
        set(&mut cfg.cache.ports, &self.cache_ports);
        set(&mut cfg.cache.mshrs, &self.cache_mshrs);
        set(&mut cfg.cache.hit_latency, &self.cache_hit_latency);
        set(&mut cfg.tlb.entries, &self.tlb_entries);
        set(&mut cfg.tlb.page_bytes, &self.tlb_page_bytes);
        set(&mut cfg.tlb.miss_cycles, &self.tlb_miss_cycles);
        set(&mut cfg.dram.banks, &self.dram_banks);
        set(&mut cfg.dram.row_bytes, &self.dram_row_bytes);
        set(&mut cfg.dma.setup_cycles, &self.dma_setup_cycles);
        set(&mut cfg.dma.chunk_bytes, &self.dma_chunk_bytes);
        set(&mut cfg.dma.burst_bytes, &self.dma_burst_bytes);
        set(&mut cfg.ready_bits_granule, &self.ready_bits_granule);
        set(&mut cfg.invoke_cycles, &self.invoke_cycles);
        set(&mut cfg.topology.topology, &self.topology);
        set(
            &mut cfg.topology.protocol.max_burst_bytes,
            &self.topology_max_burst_bytes,
        );
        set(
            &mut cfg.topology.protocol.max_outstanding,
            &self.topology_max_outstanding,
        );
        let bytes = self.traffic_bytes.unwrap_or(64);
        cfg.traffic = self
            .traffic_period
            .map(|period| TrafficConfig { period, bytes });
        checked(cfg, cfg.check())
    }
}

/// The `[faults]` section: a seeded fault plan and/or watchdog overrides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultsSpec {
    /// Master seed of the canonical fault plan; `None` runs clean.
    pub seed: Option<u64>,
    /// Hard cycle budget ([`Watchdog::max_cycles`]).
    pub max_cycles: Option<u64>,
    /// Forward-progress window ([`Watchdog::no_progress_cycles`]).
    pub no_progress_cycles: Option<u64>,
}

impl FaultsSpec {
    /// The harness this section arms. Defaults everywhere give the
    /// inert harness — an empty plan under the default watchdog — which
    /// keeps the result cache eligible.
    #[must_use]
    pub fn harness(&self) -> SimHarness {
        let mut watchdog = Watchdog::default();
        watchdog.max_cycles = self.max_cycles.or(watchdog.max_cycles);
        set(&mut watchdog.no_progress_cycles, &self.no_progress_cycles);
        SimHarness {
            plan: self.seed.map(FaultPlan::from_seed).unwrap_or_default(),
            watchdog,
        }
    }
}

/// One `[[jobs]]` entry of a job-set campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobSpec {
    /// Kernel name (must be a bundled workload).
    pub kernel: String,
    /// Memory system, in the shared `isolated|dma[:OPT]|cache`
    /// vocabulary.
    pub mem: MemKind,
    /// Cycle at which the host invokes this accelerator (before any
    /// stagger shift).
    pub launch: u64,
    /// Explicit bus-master id.
    pub master: Option<u8>,
    /// Per-job datapath lanes (defaults to the campaign `[datapath]`).
    pub lanes: Option<u32>,
    /// Per-job partition factor.
    pub partition: Option<u32>,
}

impl JobSpec {
    /// A job of `kernel` on `mem` launched at cycle 0.
    #[must_use]
    pub fn new(kernel: impl Into<String>, mem: MemKind) -> Self {
        JobSpec {
            kernel: kernel.into(),
            mem,
            launch: 0,
            master: None,
            lanes: None,
            partition: None,
        }
    }

    /// The concrete job, launched `extra_launch` cycles after its declared
    /// cycle. An unknown kernel is an `L0262` diagnostic.
    fn build(
        &self,
        base_dp: DatapathConfig,
        extra_launch: u64,
    ) -> Result<AcceleratorJob, Diagnostic> {
        let mut dp = base_dp;
        set(&mut dp.lanes, &self.lanes);
        set(&mut dp.partition, &self.partition);
        let kernel = by_name(&self.kernel).ok_or_else(|| {
            Diagnostic::error("L0262", format!("unknown kernel {:?}", self.kernel))
        })?;
        let mut job =
            AcceleratorJob::new(kernel.run().trace, dp, self.mem, self.launch + extra_launch);
        if let Some(m) = self.master {
            job = job.with_master(MasterId(m));
        }
        Ok(job)
    }
}

/// A whole campaign file, typed. The canonical public API of the
/// campaign layer: [`from_toml`](CampaignSpec::from_toml) /
/// [`to_toml`](CampaignSpec::to_toml) round-trip, and
/// [`expand`](CampaignSpec::expand) produces the validated point list.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignSpec {
    /// Campaign name (journal/identification only).
    pub name: String,
    /// Kernels to sweep (sweep campaigns).
    pub kernels: Vec<String>,
    /// Memory systems to sweep each kernel under.
    pub mems: Vec<MemKind>,
    /// The swept design space.
    pub space: SpaceSpec,
    /// Base datapath parameters.
    pub datapath: DatapathSpec,
    /// SoC platform overrides.
    pub soc: SocSpec,
    /// Fault-injection/watchdog harness.
    pub faults: FaultsSpec,
    /// Multi-accelerator jobs (job-set campaigns).
    pub jobs: Vec<JobSpec>,
    /// Launch-stagger axis for job-set campaigns: one point per value,
    /// with job `i` shifted by `i × stagger`. Empty means `[0]`.
    pub stagger: Vec<u64>,
    /// Accelerator-count axis for job-set campaigns: each value `k` runs
    /// the first `k` entries of `jobs`. Empty means the whole job list.
    pub accel_counts: Vec<u64>,
    /// Bus-width axis for job-set campaigns, in bits; each value is a
    /// platform variant (`soc.bus.width_bits`). Empty keeps the `[soc]`
    /// platform width.
    pub bus_widths: Vec<u32>,
}

impl CampaignSpec {
    /// Structural validation: every value has a canonical TOML form
    /// (unsigned values above `i64::MAX` do not), names resolve, the
    /// campaign is either a sweep or a job set (not both, not neither),
    /// masters are unique. Platform-level validation (SoC consistency,
    /// per-point lint) happens in [`expand`](CampaignSpec::expand).
    #[must_use]
    pub fn validate(&self) -> Report {
        let mut report = self.canonical().report;
        if self.name.is_empty() {
            report.push(
                Diagnostic::error("L0261", "campaign needs a non-empty `name`")
                    .at(Locus::Field("name")),
            );
        }
        let sweep = self.kernels.iter().map(|k| (k, "kernels"));
        let jobs = self.jobs.iter().map(|j| (&j.kernel, "jobs"));
        for (k, field) in sweep.chain(jobs) {
            let why = match (k.ends_with(".atrc"), field == "jobs") {
                // A `.atrc` sweep entry is a file path: opening validates
                // the header, checksum and footer in one pass, so a
                // campaign that lints clean here streams clean at run
                // time (`L0280` findings surface as `L0262` here).
                (true, false) => aladdin_ir::AtrcTrace::open(k)
                    .err()
                    .map(|d| format!("trace file {k:?}: {}", d.message)),
                (true, true) => Some(format!(
                    "job kernel {k:?}: `.atrc` traces are supported in sweep `kernels`, \
                     not [[jobs]] (multi-accelerator jobs own their traces)"
                )),
                (false, _) => by_name(k)
                    .is_none()
                    .then(|| format!("unknown kernel {k:?}")),
            };
            if let Some(why) = why {
                report.push(Diagnostic::error("L0262", why).at(Locus::Field(field)));
            }
        }
        match (self.jobs.is_empty(), self.kernels.is_empty()) {
            (true, true) => report.push(Diagnostic::error(
                "L0263",
                "campaign sweeps nothing: give `kernels` (a sweep) or [[jobs]] (a job set)",
            )),
            (false, false) => report.push(Diagnostic::error(
                "L0261",
                "a campaign is either a sweep (`kernels`) or a job set ([[jobs]]), not both",
            )),
            _ => {}
        }
        if self.jobs.is_empty() {
            if !self.kernels.is_empty() && self.mems.is_empty() {
                report.push(Diagnostic::error(
                    "L0263",
                    "sweep campaign needs at least one entry in `mems`",
                ));
            }
            let job_axes = [
                ("stagger", self.stagger.is_empty()),
                ("accel_counts", self.accel_counts.is_empty()),
                ("bus_widths", self.bus_widths.is_empty()),
            ];
            for (key, _) in job_axes.iter().filter(|(_, empty)| !empty) {
                report.push(Diagnostic::error(
                    "L0261",
                    format!("`{key}` only applies to job-set campaigns"),
                ));
            }
        } else {
            for &k in &self.accel_counts {
                if k == 0 || k as usize > self.jobs.len() {
                    report.push(
                        Diagnostic::error(
                            "L0261",
                            format!(
                                "accel_counts entry {k} out of range: the campaign declares \
                                 {} job(s)",
                                self.jobs.len()
                            ),
                        )
                        .at(Locus::Field("accel_counts")),
                    );
                }
            }
        }
        report
    }

    /// Parse and validate a campaign document.
    ///
    /// # Errors
    ///
    /// Returns `L0260` diagnostics for malformed TOML, `L0261` for
    /// unknown keys or ill-typed values, `L0262` for unknown names, and
    /// `L0263` for empty campaigns.
    pub fn from_toml(text: &str) -> Result<Self, Report> {
        let root = toml::parse(text)?;
        let mut spec = CampaignSpec::default();
        let mut reader = Reader::new(&root, At::default());
        walk_campaign(&mut reader, &mut spec);
        let mut report = reader.finish();
        report.merge(spec.validate());
        checked(spec, report)
    }

    /// Serialize canonically. `from_toml(to_toml(spec))` reproduces
    /// `spec` exactly; defaults are omitted so hand-written files stay
    /// minimal after a round trip.
    #[must_use]
    pub fn to_toml(&self) -> String {
        toml::serialize(&self.canonical().table)
    }

    /// The canonical table, with `L0261` for every value it cannot hold.
    fn canonical(&self) -> Writer {
        let mut writer = Writer::default();
        walk_campaign(&mut writer, &mut self.clone());
        writer
    }

    /// Expand into the validated, ordered point list.
    ///
    /// Sweep campaigns produce kernels × mems × space points, each
    /// pre-flighted with [`lint_design`]; rejected points are counted and
    /// reported, not silently dropped. Job-set campaigns produce one
    /// multi-accelerator point per stagger value, validated with
    /// [`validate_multi_jobs`](aladdin_core::validate_multi_jobs).
    ///
    /// # Errors
    ///
    /// Returns the merged report when the spec, its platform, its fault
    /// plan, or every single point is invalid.
    pub fn expand(&self) -> Result<CampaignPlan, Report> {
        let mut report = self.validate();
        if report.has_errors() {
            return Err(report);
        }
        let (soc, base_dp) = match (self.soc.apply(), self.datapath.apply()) {
            (Ok(soc), Ok(dp)) => (soc, dp),
            (Err(r), _) | (Ok(_), Err(r)) => {
                report.merge(r);
                return Err(report);
            }
        };
        let harness = self.faults.harness();
        if !harness.plan.is_empty() {
            report.merge(harness.plan.validate());
        }
        if report.has_errors() {
            return Err(report);
        }

        // Topology is the outermost axis, matching the sweep runners'
        // `specs_for` ordering. An explicit `space.topologies` list
        // overrides the platform; otherwise the single `[soc.topology]`
        // (or default shared-bus) platform is kept as-is.
        let platform = vec![soc.topology.topology];
        let topologies = self.space.topologies.clone().unwrap_or(platform);
        let mut points = Vec::new();
        let mut rejected = 0usize;
        if self.jobs.is_empty() {
            let space = self.space.design_space();
            let dma_points = space.dma_points();
            let cache_points = space.cache_points();
            let unconstructible = space.cache_points_unfiltered().len() - cache_points.len();
            for &topology in &topologies {
                let mut soc = soc;
                soc.topology.topology = topology;
                // Pre-flight depends only on the datapath and platform, so
                // each candidate is linted once per topology.
                let dma = dma_points.iter().map(|p| {
                    let dp = DatapathConfig {
                        lanes: p.lanes,
                        partition: p.partition,
                        ..base_dp
                    };
                    (dp, soc)
                });
                let cache = cache_points.iter().map(|p| {
                    let dp = DatapathConfig {
                        lanes: p.lanes,
                        partition: p.lanes,
                        ..base_dp
                    };
                    (dp, p.apply(&soc))
                });
                let (dma, cache) = (preflight(dma.collect()), preflight(cache.collect()));
                for kernel in &self.kernels {
                    for &kind in &self.mems {
                        let (ok, dropped) = if kind == MemKind::Cache { &cache } else { &dma };
                        rejected += dropped;
                        points.extend(ok.iter().map(|&(dp, soc)| PlannedPoint::Single {
                            kernel: kernel.clone(),
                            point: PointSpec { kind, dp, soc },
                        }));
                    }
                }
            }
            rejected += unconstructible
                * topologies.len()
                * self.kernels.len()
                * self.mems.iter().filter(|m| **m == MemKind::Cache).count();
        } else {
            let staggers = axis(&self.stagger, 0);
            let counts = axis(&self.accel_counts, self.jobs.len() as u64);
            let widths = axis(&self.bus_widths, soc.bus.width_bits);
            // Launch offsets do not change the static job-set checks, and
            // every count is a prefix of the full job list, so one
            // validation pass per platform variant (at the largest count)
            // covers all of its points. Topology is the outermost axis,
            // then bus width, then count, then stagger — the same
            // outermost-to-innermost order the sweep branch uses.
            let jobs = match build_jobs(&self.jobs, base_dp, staggers[0]) {
                Ok(jobs) => jobs,
                Err(d) => {
                    report.push(d);
                    return Err(report);
                }
            };
            let max_count = counts.iter().max().map_or(jobs.len(), |&k| k as usize);
            for &topology in &topologies {
                for &width in &widths {
                    let mut soc = soc;
                    soc.topology.topology = topology;
                    soc.bus.width_bits = width;
                    report.merge(soc.check());
                    report.merge(aladdin_core::validate_multi_jobs(&jobs[..max_count], &soc));
                    if report.has_errors() {
                        return Err(report);
                    }
                    for &count in &counts {
                        points.extend(staggers.iter().map(|&s| PlannedPoint::Multi {
                            stagger: s,
                            count: count as usize,
                            soc,
                        }));
                    }
                }
            }
        }

        if rejected > 0 {
            report.push(Diagnostic::warning(
                "L0263",
                format!("{rejected} design point(s) rejected by pre-flight"),
            ));
        }
        if points.is_empty() {
            report.push(Diagnostic::error(
                "L0263",
                "campaign expands to zero runnable points",
            ));
            return Err(report);
        }
        report.push(Diagnostic::info(
            "L0264",
            format!(
                "campaign {:?}: {} point(s) ({} rejected)",
                self.name,
                points.len(),
                rejected
            ),
        ));

        let digest = fnv1a64(self.to_toml().as_bytes());
        Ok(CampaignPlan {
            spec: self.clone(),
            digest,
            soc,
            base_dp,
            harness,
            points,
            rejected,
            report,
        })
    }
}

/// Build concrete jobs for one stagger value: job `i` launches at its
/// declared cycle plus `i × stagger`. The first job naming an unknown
/// kernel stops the build with its `L0262` diagnostic.
fn build_jobs(
    specs: &[JobSpec],
    base_dp: DatapathConfig,
    stagger: u64,
) -> Result<Vec<AcceleratorJob>, Diagnostic> {
    specs
        .iter()
        .enumerate()
        .map(|(i, j)| j.build(base_dp, stagger * i as u64))
        .collect()
}

/// The candidates that pass [`lint_design`], and how many did not.
fn preflight(
    mut candidates: Vec<(DatapathConfig, SocConfig)>,
) -> (Vec<(DatapathConfig, SocConfig)>, usize) {
    let all = candidates.len();
    candidates.retain(|(dp, soc)| !lint_design(dp, soc).has_errors());
    let rejected = all - candidates.len();
    (candidates, rejected)
}

/// A job-set axis, or just `default` when the campaign leaves it empty.
fn axis<T: Clone>(values: &[T], default: T) -> Vec<T> {
    if values.is_empty() {
        vec![default]
    } else {
        values.to_vec()
    }
}

/// A campaign expanded to its concrete, ordered point list. Point order
/// is deterministic — journal indices refer to it across resumes.
#[derive(Debug, Clone)]
pub struct CampaignPlan {
    /// The spec this plan was expanded from.
    pub spec: CampaignSpec,
    /// FNV-1a digest of the canonical spec serialization; journals record
    /// it so a resume against an edited campaign is refused.
    pub digest: u64,
    /// The base platform (after `[soc]` overrides).
    pub soc: SocConfig,
    /// The base datapath (after `[datapath]`).
    pub base_dp: DatapathConfig,
    /// The harness every point runs under.
    pub harness: SimHarness,
    /// The ordered points.
    pub points: Vec<PlannedPoint>,
    /// Points dropped by pre-flight.
    pub rejected: usize,
    /// Validation findings (info summary included).
    pub report: Report,
}

impl CampaignPlan {
    /// The concrete jobs of a job-set point at `stagger`.
    ///
    /// # Errors
    ///
    /// An `L0262` diagnostic if a job names an unknown kernel, which only a
    /// plan edited after [`expand`](CampaignSpec::expand) can hold.
    pub fn try_jobs_at(&self, stagger: u64) -> Result<Vec<AcceleratorJob>, Diagnostic> {
        build_jobs(&self.spec.jobs, self.base_dp, stagger)
    }

    /// The concrete jobs of a job-set point at `stagger`.
    ///
    /// # Panics
    ///
    /// Panics if a job names an unknown kernel; use
    /// [`try_jobs_at`](CampaignPlan::try_jobs_at) to get that as a typed
    /// diagnostic instead. A plan straight from `expand` never panics here.
    #[must_use]
    pub fn jobs_at(&self, stagger: u64) -> Vec<AcceleratorJob> {
        self.try_jobs_at(stagger).unwrap_or_else(|d| panic!("{d}"))
    }
}

/// One concrete point of a campaign.
// A campaign's points are either all Single or all Multi, so the size
// skew between the variants never wastes memory in practice.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum PlannedPoint {
    /// One kernel × one design point (sweep campaigns).
    Single {
        /// Kernel name.
        kernel: String,
        /// The fully-specified design point.
        point: PointSpec,
    },
    /// One multi-accelerator co-run (job-set campaigns).
    Multi {
        /// Launch stagger applied to the job list.
        stagger: u64,
        /// How many jobs run (a prefix of the declared job list).
        count: usize,
        /// The platform variant for this point (topology and bus-width
        /// axes applied over the `[soc]` base).
        soc: SocConfig,
    },
}

/// The canonical `isolated|dma:OPT|cache` spelling of a [`MemKind`].
#[must_use]
pub fn mem_str(kind: MemKind) -> String {
    match kind {
        MemKind::Isolated => "isolated".to_owned(),
        MemKind::Cache => "cache".to_owned(),
        MemKind::Dma(opt) => format!(
            "dma:{}",
            match opt {
                aladdin_core::DmaOptLevel::Baseline => "baseline",
                aladdin_core::DmaOptLevel::Pipelined => "pipelined",
                aladdin_core::DmaOptLevel::Full => "full",
            }
        ),
    }
}

/// Override `dst` with the campaign's value, when it sets one.
fn set<T: Clone>(dst: &mut T, v: &Option<T>) {
    if let Some(v) = v {
        dst.clone_from(v);
    }
}

/// `value`, unless `report` holds an error.
fn checked<T>(value: T, report: Report) -> Result<T, Report> {
    if report.has_errors() {
        Err(report)
    } else {
        Ok(value)
    }
}

/// 64-bit FNV-1a, used for campaign digests. Byte-wise on purpose, unlike
/// the trace hasher ([`aladdin_ir::ContentHasher`]): journal headers
/// persist this digest, so changing it would orphan every journal.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// The TOML schema. One walk per section names each key once, in canonical
// order; `Reader` runs it to parse, type-check and find unknown keys, and
// `Writer` runs it to serialize.

fn walk_campaign<W: Walker>(w: &mut W, s: &mut CampaignSpec) {
    w.always("name", &mut s.name, false);
    w.key("kernels", &mut s.kernels);
    w.key("mems", &mut s.mems);
    w.key("stagger", &mut s.stagger);
    w.key("accel_counts", &mut s.accel_counts);
    w.key("bus_widths", &mut s.bus_widths);
    w.table("space", |w| walk_space(w, &mut s.space));
    w.table("datapath", |w| walk_datapath(w, &mut s.datapath));
    w.table("soc", |w| walk_soc(w, &mut s.soc));
    w.table("faults", |w| walk_faults(w, &mut s.faults));
    w.items(
        "jobs",
        &mut s.jobs,
        || JobSpec::new(String::new(), MemKind::Isolated),
        walk_job,
    );
}

fn walk_space<W: Walker>(w: &mut W, s: &mut SpaceSpec) {
    w.key("preset", &mut s.preset);
    w.opt("lanes", &mut s.lanes);
    w.opt("partitions", &mut s.partitions);
    w.opt("cache_sizes", &mut s.cache_sizes);
    w.opt("cache_lines", &mut s.cache_lines);
    w.opt("cache_ports", &mut s.cache_ports);
    w.opt("cache_assocs", &mut s.cache_assocs);
    w.opt("topologies", &mut s.topologies);
}

fn walk_datapath<W: Walker>(w: &mut W, s: &mut DatapathSpec) {
    w.opt("lanes", &mut s.lanes);
    w.opt("partition", &mut s.partition);
    w.opt("ports_per_bank", &mut s.ports_per_bank);
    w.opt("sync", &mut s.sync);
}

fn walk_soc<W: Walker>(w: &mut W, s: &mut SocSpec) {
    w.opt("ready_bits_granule", &mut s.ready_bits_granule);
    w.opt("invoke_cycles", &mut s.invoke_cycles);
    w.table("clock", |w| w.opt("mhz", &mut s.clock_mhz));
    w.table("bus", |w| {
        w.opt("width_bits", &mut s.bus_width_bits);
        w.opt("infinite_bandwidth", &mut s.bus_infinite_bandwidth);
    });
    w.table("cache", |w| {
        w.opt("size_bytes", &mut s.cache_size_bytes);
        w.opt("line_bytes", &mut s.cache_line_bytes);
        w.opt("assoc", &mut s.cache_assoc);
        w.opt("ports", &mut s.cache_ports);
        w.opt("mshrs", &mut s.cache_mshrs);
        w.opt("hit_latency", &mut s.cache_hit_latency);
    });
    w.table("tlb", |w| {
        w.opt("entries", &mut s.tlb_entries);
        w.opt("page_bytes", &mut s.tlb_page_bytes);
        w.opt("miss_cycles", &mut s.tlb_miss_cycles);
    });
    w.table("dram", |w| {
        w.opt("banks", &mut s.dram_banks);
        w.opt("row_bytes", &mut s.dram_row_bytes);
    });
    w.table("dma", |w| {
        w.opt("setup_cycles", &mut s.dma_setup_cycles);
        w.opt("chunk_bytes", &mut s.dma_chunk_bytes);
        w.opt("burst_bytes", &mut s.dma_burst_bytes);
    });
    w.table("traffic", |w| {
        w.opt("period", &mut s.traffic_period);
        w.opt("bytes", &mut s.traffic_bytes);
    });
    w.table("topology", |w| {
        w.opt("spec", &mut s.topology);
        w.opt("max_burst_bytes", &mut s.topology_max_burst_bytes);
        w.opt("max_outstanding", &mut s.topology_max_outstanding);
    });
}

fn walk_faults<W: Walker>(w: &mut W, s: &mut FaultsSpec) {
    w.opt("seed", &mut s.seed);
    w.opt("max_cycles", &mut s.max_cycles);
    w.opt("no_progress_cycles", &mut s.no_progress_cycles);
}

fn walk_job<W: Walker>(w: &mut W, j: &mut JobSpec) {
    w.always("kernel", &mut j.kernel, true);
    w.always("mem", &mut j.mem, true);
    w.key("launch", &mut j.launch);
    w.opt("master", &mut j.master);
    w.opt("lanes", &mut j.lanes);
    w.opt("partition", &mut j.partition);
}

/// One pass over the schema, visiting each key of a section in order.
trait Walker: Sized {
    /// A key left out of the canonical form while it holds its default.
    fn key<K: Key + Default + PartialEq>(&mut self, key: &'static str, v: &mut K);
    /// An optional key, left out while `None`.
    fn opt<K: Key>(&mut self, key: &'static str, v: &mut Option<K>);
    /// A key always written. A `required` key that is absent or
    /// ill-typed is reported missing, and its `[[table]]` item dropped.
    fn always<K: Key>(&mut self, key: &'static str, v: &mut K, required: bool);
    /// A sub-table, left out while empty.
    fn table(&mut self, key: &'static str, walk: impl FnOnce(&mut Self));
    /// An array of tables: `walk` visits each item, `new` starts one.
    fn items<T>(
        &mut self,
        key: &'static str,
        items: &mut Vec<T>,
        new: fn() -> T,
        walk: fn(&mut Self, &mut T),
    );
}

/// Where a key sits in a campaign document.
#[derive(Default)]
struct At {
    /// Dotted path, as messages print it (`soc.cache.assoc`, `jobs[0].mem`).
    path: String,
    /// The top-level key an unknown name is located at (none in `[[jobs]]`).
    section: Option<&'static str>,
}

impl At {
    fn ill_typed(&self, want: &str, got: &Value, report: &mut Report) -> Miss {
        report.push(Diagnostic::error(
            "L0261",
            format!(
                "`{}` must be {}, got {}",
                self.path,
                indefinite(want),
                indefinite(got.type_name())
            ),
        ));
        Miss::Type
    }

    /// A well-typed value naming nothing the key knows (`L0262`);
    /// `located` findings point at the key's section.
    fn unknown(&self, why: impl fmt::Display, located: bool, report: &mut Report) -> Miss {
        let d = Diagnostic::error("L0262", format!("{}: {why}", self.path));
        report.push(match self.section {
            Some(section) if located => d.at(Locus::Field(section)),
            _ => d,
        });
        Miss::Name
    }
}

/// `noun` after its indefinite article: "an array", "a table".
fn indefinite(noun: &str) -> String {
    let article = if noun.starts_with(['a', 'e', 'i', 'o', 'u']) {
        "an"
    } else {
        "a"
    };
    format!("{article} {noun}")
}

/// Why a key was not read; its diagnostic is already reported.
enum Miss {
    /// Not the TOML type the key holds (`L0261`).
    Type,
    /// The right type, but an unknown name (`L0262`).
    Name,
}

/// A value one campaign key holds.
trait Key: Sized {
    /// What an array of these must be, in `L0261` messages.
    const LIST: &'static str = "array";
    /// Read `v`, reporting an ill-typed value or an unknown name.
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss>;
    /// The canonical TOML form.
    fn write(&self) -> Value;
    /// Whether [`write`](Key::write) holds the value exactly.
    fn fits(&self) -> bool {
        true
    }
}

/// The unsigned widths campaign keys store; they share one read and write.
trait Uint: Copy + TryFrom<i64> + TryInto<u64> {}
impl Uint for u8 {}
impl Uint for u32 {}
impl Uint for u64 {}
impl Uint for usize {}

impl<T: Uint> Key for T {
    const LIST: &'static str = "array of integers";
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        v.as_int()
            .and_then(|n| T::try_from(n).ok())
            .ok_or_else(|| at.ill_typed("non-negative integer", v, report))
    }
    #[allow(clippy::cast_possible_wrap)]
    fn write(&self) -> Value {
        Value::Int((*self).try_into().unwrap_or(u64::MAX) as i64)
    }
    /// TOML integers are `i64`: larger values have no canonical form.
    fn fits(&self) -> bool {
        (*self)
            .try_into()
            .is_ok_and(|n: u64| i64::try_from(n).is_ok())
    }
}

impl Key for f64 {
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        v.as_float()
            .ok_or_else(|| at.ill_typed("number", v, report))
    }
    fn write(&self) -> Value {
        Value::Float(*self)
    }
}

impl Key for bool {
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        v.as_bool()
            .ok_or_else(|| at.ill_typed("boolean", v, report))
    }
    fn write(&self) -> Value {
        Value::Bool(*self)
    }
}

fn read_str<'v>(v: &'v Value, at: &At, report: &mut Report) -> Result<&'v str, Miss> {
    v.as_str().ok_or_else(|| at.ill_typed("string", v, report))
}

impl Key for String {
    const LIST: &'static str = "array of strings";
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        read_str(v, at, report).map(str::to_owned)
    }
    fn write(&self) -> Value {
        Value::Str(self.clone())
    }
}

impl Key for MemKind {
    const LIST: &'static str = "array of strings";
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        parse_mem_spec(read_str(v, at, report)?).map_err(|e| at.unknown(e, true, report))
    }
    fn write(&self) -> Value {
        Value::Str(mem_str(*self))
    }
}

impl Key for Topology {
    const LIST: &'static str = "array of strings";
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        Topology::parse(read_str(v, at, report)?).map_err(|e| at.unknown(e, true, report))
    }
    fn write(&self) -> Value {
        Value::Str(self.spec_string())
    }
}

impl Key for LaneSync {
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        match read_str(v, at, report)? {
            "barrier" => Ok(LaneSync::Barrier),
            "free" => Ok(LaneSync::Free),
            other => Err(at.unknown(
                format_args!("expected barrier|free, got {other:?}"),
                false,
                report,
            )),
        }
    }
    fn write(&self) -> Value {
        let name = match self {
            LaneSync::Barrier => "barrier",
            LaneSync::Free => "free",
        };
        Value::Str(name.to_owned())
    }
}

impl Key for SpacePreset {
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        match read_str(v, at, report)? {
            "quick" => Ok(SpacePreset::Quick),
            "standard" => Ok(SpacePreset::Standard),
            "paper" => Ok(SpacePreset::Paper),
            other => Err(at.unknown(
                format_args!("expected quick|standard|paper, got {other:?}"),
                false,
                report,
            )),
        }
    }
    fn write(&self) -> Value {
        let name = match self {
            SpacePreset::Quick => "quick",
            SpacePreset::Standard => "standard",
            SpacePreset::Paper => "paper",
        };
        Value::Str(name.to_owned())
    }
}

impl<T: Key> Key for Vec<T> {
    /// Ill-typed items are skipped and reported first, then unknown names:
    /// a list's shape is checked before its names resolve.
    fn read(v: &Value, at: &At, report: &mut Report) -> Result<Self, Miss> {
        let items = v
            .as_array()
            .ok_or_else(|| at.ill_typed(T::LIST, v, report))?;
        let mut names = Report::new();
        let mut out = Vec::with_capacity(items.len());
        for item in items {
            let mut found = Report::new();
            match T::read(item, at, &mut found) {
                Ok(x) => out.push(x),
                Err(Miss::Type) => report.merge(found),
                Err(Miss::Name) => names.merge(found),
            }
        }
        report.merge(names);
        Ok(out)
    }
    fn write(&self) -> Value {
        Value::Array(self.iter().map(Key::write).collect())
    }
    fn fits(&self) -> bool {
        self.iter().all(Key::fits)
    }
}

/// `key` in the table at `path`, as messages print it.
fn dotted(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_owned()
    } else {
        format!("{path}.{key}")
    }
}

/// Reads one table of a campaign document into a spec section.
struct Reader<'t> {
    table: &'t Table,
    /// Where `table` sits: `""` at the root.
    at: At,
    /// Every key the walk named, for the unknown-key check.
    known: Vec<&'static str>,
    /// A required key failed: the rest of this item is skipped.
    dropped: bool,
    /// Findings on values, reported after the table's unknown keys.
    report: Report,
}

impl<'t> Reader<'t> {
    fn new(table: &'t Table, at: At) -> Self {
        Reader {
            table,
            at,
            known: Vec::new(),
            dropped: false,
            report: Report::new(),
        }
    }

    fn path(&self, key: &str) -> String {
        dotted(&self.at.path, key)
    }

    /// Record `key` as known, and find its value unless this item is
    /// dropped. A root key is its own section.
    fn find(&mut self, key: &'static str) -> Option<(&'t Value, At)> {
        self.known.push(key);
        if self.dropped {
            return None;
        }
        let (_, v) = self.table.iter().find(|(k, _)| k == key)?;
        let section = if self.at.path.is_empty() {
            Some(key)
        } else {
            self.at.section
        };
        let path = self.path(key);
        Some((v, At { path, section }))
    }

    fn read<K: Key>(&mut self, key: &'static str) -> Option<K> {
        let (v, at) = self.find(key)?;
        K::read(v, &at, &mut self.report).ok()
    }

    /// Walk `v` as the table at `at`. `false` if it is not a table or a
    /// required key in it failed.
    fn nested(&mut self, v: &'t Value, at: At, walk: impl FnOnce(&mut Self)) -> bool {
        let Some(t) = v.as_table() else {
            at.ill_typed("table", v, &mut self.report);
            return false;
        };
        let mut sub = Reader::new(t, at);
        walk(&mut sub);
        let kept = !sub.dropped;
        self.report.merge(sub.finish());
        kept
    }

    /// This table's unknown keys, then its value findings.
    fn finish(self) -> Report {
        let mut report = Report::new();
        for (key, _) in self.table {
            if !self.known.contains(&key.as_str()) {
                report.push(Diagnostic::error(
                    "L0261",
                    format!(
                        "unknown key `{}` (known: {})",
                        self.path(key),
                        self.known.join(", ")
                    ),
                ));
            }
        }
        report.merge(self.report);
        report
    }
}

impl Walker for Reader<'_> {
    fn key<K: Key + Default + PartialEq>(&mut self, key: &'static str, v: &mut K) {
        if let Some(x) = self.read(key) {
            *v = x;
        }
    }

    fn opt<K: Key>(&mut self, key: &'static str, v: &mut Option<K>) {
        if let Some(x) = self.read(key) {
            *v = Some(x);
        }
    }

    fn always<K: Key>(&mut self, key: &'static str, v: &mut K, required: bool) {
        let skipped = self.dropped;
        match self
            .find(key)
            .map(|(x, at)| K::read(x, &at, &mut self.report))
        {
            Some(Ok(x)) => *v = x,
            Some(Err(Miss::Name)) if required => self.dropped = true,
            _ if required && !skipped => {
                self.report.push(Diagnostic::error(
                    "L0261",
                    format!("{}: missing `{key}`", self.at.path),
                ));
                self.dropped = true;
            }
            _ => {}
        }
    }

    fn table(&mut self, key: &'static str, walk: impl FnOnce(&mut Self)) {
        if let Some((v, at)) = self.find(key) {
            self.nested(v, at, walk);
        }
    }

    fn items<T>(
        &mut self,
        key: &'static str,
        items: &mut Vec<T>,
        new: fn() -> T,
        walk: fn(&mut Self, &mut T),
    ) {
        let Some((v, at)) = self.find(key) else {
            return;
        };
        let Some(list) = v.as_array() else {
            at.ill_typed("array of tables", v, &mut self.report);
            return;
        };
        for (i, item) in list.iter().enumerate() {
            let at = At {
                path: format!("{}[{i}]", at.path),
                section: None,
            };
            let mut x = new();
            if self.nested(item, at, |r| walk(r, &mut x)) {
                items.push(x);
            }
        }
    }
}

/// Serializes a spec section into its canonical table, reporting every
/// value the table cannot hold (`L0261`).
#[derive(Default)]
struct Writer {
    table: Table,
    /// Where `table` sits: `""` at the root.
    path: String,
    report: Report,
}

impl Writer {
    fn put(&mut self, key: &str, v: Value) {
        self.table.push((key.to_owned(), v));
    }

    fn put_key<K: Key>(&mut self, key: &str, v: &K) {
        if !v.fits() {
            self.report.push(Diagnostic::error(
                "L0261",
                format!(
                    "`{}` must be at most {}, the largest TOML integer",
                    dotted(&self.path, key),
                    i64::MAX
                ),
            ));
        }
        self.put(key, v.write());
    }

    /// The table `walk` writes at `path`; its findings join this one's.
    fn nested(&mut self, path: String, walk: impl FnOnce(&mut Self)) -> Table {
        let mut sub = Writer {
            path,
            ..Writer::default()
        };
        walk(&mut sub);
        self.report.merge(sub.report);
        sub.table
    }
}

impl Walker for Writer {
    fn key<K: Key + Default + PartialEq>(&mut self, key: &'static str, v: &mut K) {
        if *v != K::default() {
            self.put_key(key, v);
        }
    }

    fn opt<K: Key>(&mut self, key: &'static str, v: &mut Option<K>) {
        if let Some(v) = v {
            self.put_key(key, v);
        }
    }

    fn always<K: Key>(&mut self, key: &'static str, v: &mut K, _required: bool) {
        self.put_key(key, v);
    }

    fn table(&mut self, key: &'static str, walk: impl FnOnce(&mut Self)) {
        let sub = self.nested(dotted(&self.path, key), walk);
        if !sub.is_empty() {
            self.put(key, Value::Table(sub));
        }
    }

    fn items<T>(
        &mut self,
        key: &'static str,
        items: &mut Vec<T>,
        _new: fn() -> T,
        walk: fn(&mut Self, &mut T),
    ) {
        if items.is_empty() {
            return;
        }
        let path = dotted(&self.path, key);
        let tables = items
            .iter_mut()
            .enumerate()
            .map(|(i, x)| Value::Table(self.nested(format!("{path}[{i}]"), |w| walk(w, x))))
            .collect();
        self.put(key, Value::Array(tables));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aladdin_core::DmaOptLevel;

    const SWEEP_DOC: &str = r#"
name = "quick-demo"
kernels = ["aes-aes", "nw-nw"]
mems = ["dma:full", "cache"]

[space]
preset = "quick"
lanes = [1, 4]

[datapath]
ports_per_bank = 2

[soc.bus]
width_bits = 64
"#;

    #[test]
    fn sweep_campaign_round_trips() {
        let spec = CampaignSpec::from_toml(SWEEP_DOC).expect("parses");
        assert_eq!(spec.name, "quick-demo");
        assert_eq!(spec.kernels, ["aes-aes", "nw-nw"]);
        assert_eq!(spec.mems, [MemKind::Dma(DmaOptLevel::Full), MemKind::Cache]);
        assert_eq!(spec.space.lanes.as_deref(), Some(&[1, 4][..]));
        assert_eq!(spec.datapath.ports_per_bank, Some(2));
        assert_eq!(spec.soc.bus_width_bits, Some(64));

        let text = spec.to_toml();
        let again = CampaignSpec::from_toml(&text).expect("canonical form parses");
        assert_eq!(spec, again, "{text}");
        assert_eq!(again.to_toml(), text, "serialization is a fixed point");
    }

    #[test]
    fn missing_atrc_sweep_entry_is_rejected_at_validate_time() {
        let report = CampaignSpec::from_toml(
            r#"
name = "bad-trace"
kernels = ["/nonexistent/never.atrc"]
mems = ["isolated"]
"#,
        )
        .expect_err("a missing trace file cannot validate");
        assert!(report.has_errors());
        assert!(report.has_code("L0262"));
        assert!(
            report.to_human().contains("trace file"),
            "{}",
            report.to_human()
        );
    }

    #[test]
    fn atrc_job_kernels_are_rejected() {
        let report = CampaignSpec::from_toml(
            r#"
name = "bad-job"

[[jobs]]
kernel = "some.atrc"
mem = "cache"
"#,
        )
        .expect_err("job traces are not supported");
        assert!(report.has_errors());
        assert!(
            report.to_human().contains("not [[jobs]]"),
            "{}",
            report.to_human()
        );
    }

    #[test]
    fn sweep_campaign_expands_deterministically() {
        let spec = CampaignSpec::from_toml(SWEEP_DOC).expect("parses");
        let plan = spec.expand().expect("expands");
        // 2 kernels × (4 dma points + quick cache points), identical on
        // re-expansion (journal indices depend on this).
        let quick = DesignSpace::quick();
        let expected = 2 * (quick.dma_points().len() + quick.cache_points().len());
        assert_eq!(plan.points.len() + plan.rejected, expected + plan.rejected);
        assert_eq!(plan.points.len(), expected);
        assert!(plan.report.has_code("L0264"));
        let again = spec.expand().expect("expands again");
        assert_eq!(plan.points, again.points);
        assert_eq!(plan.digest, again.digest);
        // Points carry the campaign's overrides.
        let PlannedPoint::Single { point, .. } = &plan.points[0] else {
            panic!("sweep campaign yields single points");
        };
        assert_eq!(point.soc.bus.width_bits, 64);
        assert_eq!(point.dp.ports_per_bank, 2);
    }

    #[test]
    fn job_set_campaign_expands_per_stagger() {
        let doc = r#"
name = "hetero"
stagger = [0, 500]

[datapath]
lanes = 4
partition = 4

[[jobs]]
kernel = "spmv-crs"
mem = "cache"

[[jobs]]
kernel = "stencil-stencil2d"
mem = "dma:pipelined"
launch = 100
"#;
        let spec = CampaignSpec::from_toml(doc).expect("parses");
        let plan = spec.expand().expect("expands");
        assert_eq!(
            plan.points,
            [
                PlannedPoint::Multi {
                    stagger: 0,
                    count: 2,
                    soc: plan.soc
                },
                PlannedPoint::Multi {
                    stagger: 500,
                    count: 2,
                    soc: plan.soc
                }
            ]
        );
        let jobs = plan.jobs_at(500);
        assert_eq!(jobs[0].launch_at, 0);
        assert_eq!(jobs[1].launch_at, 600, "declared launch + 1 × stagger");
        assert_eq!(jobs[1].kind, MemKind::Dma(DmaOptLevel::Pipelined));

        let text = spec.to_toml();
        assert_eq!(CampaignSpec::from_toml(&text).expect("parses"), spec);
    }

    #[test]
    fn bad_campaigns_get_typed_diagnostics() {
        // Unknown key.
        let r = CampaignSpec::from_toml(
            "name = \"x\"\nkernels = [\"aes-aes\"]\nmems = [\"dma\"]\nturbo = true\n",
        )
        .unwrap_err();
        assert!(r.has_code("L0261"), "{}", r.to_human());
        // Unknown kernel and unknown mem.
        let r = CampaignSpec::from_toml("name = \"x\"\nkernels = [\"nope\"]\nmems = [\"warp\"]\n")
            .unwrap_err();
        assert!(r.has_code("L0262"), "{}", r.to_human());
        // Nothing to run.
        let r = CampaignSpec::from_toml("name = \"x\"\n").unwrap_err();
        assert!(r.has_code("L0263"), "{}", r.to_human());
        // Sweep and job set at once.
        let r = CampaignSpec::from_toml(
            "name = \"x\"\nkernels = [\"aes-aes\"]\nmems = [\"dma\"]\n\n[[jobs]]\nkernel = \"aes-aes\"\nmem = \"cache\"\n",
        )
        .unwrap_err();
        assert!(r.has_code("L0261"), "{}", r.to_human());
        // Invalid platform override caught at expansion.
        let spec = CampaignSpec::from_toml(
            "name = \"x\"\nkernels = [\"aes-aes\"]\nmems = [\"dma\"]\n\n[soc.cache]\nsize_bytes = 3000\n",
        )
        .expect("structurally fine");
        let r = spec.expand().unwrap_err();
        assert!(r.has_code("L0211"), "{}", r.to_human());
    }

    /// The sweep header every `[soc]` rejection test below starts from.
    const SOC_HEADER: &str = "name = \"x\"\nkernels = [\"aes-aes\"]\nmems = [\"isolated\"]\n\n";

    fn soc_rejection(soc: &str) -> String {
        CampaignSpec::from_toml(&format!("{SOC_HEADER}{soc}"))
            .expect_err("an ill-typed [soc] sub-section is rejected")
            .to_human()
    }

    #[test]
    fn soc_clock_that_is_not_a_table_is_rejected() {
        let r = soc_rejection("[soc]\nclock = 5\n");
        assert!(
            r.contains("error [L0261] -: `soc.clock` must be a table, got an integer"),
            "{r}"
        );
    }

    #[test]
    fn soc_bus_that_is_not_a_table_is_rejected() {
        let r = soc_rejection("[soc]\nbus = \"wide\"\n");
        assert!(
            r.contains("error [L0261] -: `soc.bus` must be a table, got a string"),
            "{r}"
        );
    }

    #[test]
    fn soc_cache_array_of_tables_is_rejected() {
        let r = soc_rejection("[[soc.cache]]\nsize_bytes = 1\n");
        assert!(
            r.contains("error [L0261] -: `soc.cache` must be a table, got an array"),
            "{r}"
        );
    }

    #[test]
    fn traffic_bytes_without_a_period_is_rejected_at_expand() {
        let spec = CampaignSpec::from_toml(&format!("{SOC_HEADER}[soc.traffic]\nbytes = 32\n"))
            .expect("structurally fine");
        assert_eq!(spec.soc.traffic_bytes, Some(32));
        let r = spec.expand().unwrap_err();
        assert!(r.has_code("L0261"), "{}", r.to_human());
        assert!(
            r.to_human().contains("soc.traffic.period"),
            "{}",
            r.to_human()
        );
    }

    #[test]
    fn bus_widths_past_u32_are_ill_typed_not_saturated() {
        let r = CampaignSpec::from_toml(
            "name = \"x\"\nbus_widths = [4294967296]\n\n[[jobs]]\nkernel = \"aes-aes\"\nmem = \"cache\"\n",
        )
        .unwrap_err()
        .to_human();
        assert!(
            r.contains(
                "error [L0261] -: `bus_widths` must be a non-negative integer, got an integer"
            ),
            "{r}"
        );
        assert!(!r.contains("L0213"), "{r}");
    }

    #[test]
    fn topology_table_and_axis_round_trip_and_expand() {
        let doc = r#"
name = "topo"
kernels = ["aes-aes"]
mems = ["dma:full"]

[space]
preset = "quick"
topologies = ["shared-bus", "crossbar:4", "mesh:2x2"]

[soc.topology]
max_burst_bytes = 256
max_outstanding = 4
"#;
        let spec = CampaignSpec::from_toml(doc).expect("parses");
        assert_eq!(
            spec.space.topologies.as_deref(),
            Some(
                &[
                    Topology::SharedBus,
                    Topology::Crossbar { radix: 4 },
                    Topology::MeshNoc {
                        cols: 2,
                        rows: 2,
                        hop_cycles: 1,
                        link_bits: 32,
                    },
                ][..]
            )
        );
        assert_eq!(spec.soc.topology_max_burst_bytes, Some(256));

        let text = spec.to_toml();
        let again = CampaignSpec::from_toml(&text).expect("canonical form parses");
        assert_eq!(spec, again, "{text}");
        assert_eq!(again.to_toml(), text, "serialization is a fixed point");

        // The topology axis multiplies the point list, and every point
        // carries the protocol overrides.
        let plan = spec.expand().expect("expands");
        let quick = DesignSpace::quick();
        assert_eq!(plan.points.len(), 3 * quick.dma_points().len());
        let mut seen = std::collections::BTreeSet::new();
        for p in &plan.points {
            let PlannedPoint::Single { point, .. } = p else {
                panic!("sweep points");
            };
            seen.insert(point.soc.topology.topology.spec_string());
            assert_eq!(point.soc.topology.protocol.max_burst_bytes, 256);
        }
        assert_eq!(seen.len(), 3, "all three topologies expanded");
    }

    #[test]
    fn soc_topology_spec_sets_the_platform_without_an_axis() {
        let doc = r#"
name = "topo-base"
kernels = ["aes-aes"]
mems = ["isolated"]

[soc.topology]
spec = "two-level:2:3"
"#;
        let spec = CampaignSpec::from_toml(doc).expect("parses");
        assert_eq!(
            spec.soc.topology,
            Some(Topology::TwoLevelBus {
                clusters: 2,
                bridge_cycles: 3,
            })
        );
        let plan = spec.expand().expect("expands");
        for p in &plan.points {
            let PlannedPoint::Single { point, .. } = p else {
                panic!("sweep points");
            };
            assert_eq!(
                point.soc.topology.topology,
                Topology::TwoLevelBus {
                    clusters: 2,
                    bridge_cycles: 3,
                },
                "no space axis: the [soc.topology] platform survives expansion"
            );
        }

        // A bad spec string is a typed L0262.
        let r = CampaignSpec::from_toml(
            "name = \"x\"\nkernels = [\"aes-aes\"]\nmems = [\"isolated\"]\n\n[soc.topology]\nspec = \"ring\"\n",
        )
        .unwrap_err();
        assert!(r.has_code("L0262"), "{}", r.to_human());
        // A zero-radix crossbar is caught by platform validation (L0310).
        let spec = CampaignSpec::from_toml(
            "name = \"x\"\nkernels = [\"aes-aes\"]\nmems = [\"isolated\"]\n\n[soc.topology]\nspec = \"crossbar:0\"\n",
        )
        .expect("structurally fine");
        let r = spec.expand().unwrap_err();
        assert!(r.has_code("L0310"), "{}", r.to_human());
    }

    /// Collects the dotted path of every key the schema walk names.
    #[derive(Default)]
    struct Paths {
        prefix: Vec<&'static str>,
        found: Vec<Vec<&'static str>>,
    }

    impl Paths {
        fn push(&mut self, key: &'static str) {
            let mut path = self.prefix.clone();
            path.push(key);
            self.found.push(path);
        }
    }

    impl Walker for Paths {
        fn key<K: Key + Default + PartialEq>(&mut self, key: &'static str, _: &mut K) {
            self.push(key);
        }

        fn opt<K: Key>(&mut self, key: &'static str, _: &mut Option<K>) {
            self.push(key);
        }

        fn always<K: Key>(&mut self, key: &'static str, _: &mut K, _: bool) {
            self.push(key);
        }

        fn table(&mut self, key: &'static str, walk: impl FnOnce(&mut Self)) {
            self.prefix.push(key);
            walk(self);
            self.prefix.pop();
        }

        fn items<T>(
            &mut self,
            key: &'static str,
            _: &mut Vec<T>,
            new: fn() -> T,
            walk: fn(&mut Self, &mut T),
        ) {
            self.prefix.push(key);
            walk(self, &mut new());
            self.prefix.pop();
        }
    }

    /// Whether `v` holds `path`, looking into every table of an array.
    fn holds(v: &Value, path: &[&str]) -> bool {
        match (path, v) {
            ([], _) => true,
            (_, Value::Array(items)) => items.iter().any(|item| holds(item, path)),
            ([key, rest @ ..], Value::Table(t)) => {
                t.iter().any(|(k, v)| k == key && holds(v, rest))
            }
            _ => false,
        }
    }

    #[test]
    fn docs_examples_parse_and_cover_the_schema() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/campaigns.md");
        let docs = std::fs::read_to_string(path).expect("docs/campaigns.md is readable");
        let blocks: Vec<&str> = docs
            .split("```toml\n")
            .skip(1)
            .map(|b| b.split("```").next().unwrap_or_default())
            .collect();
        assert!(blocks.len() >= 3, "expected the campaign examples");
        let mut shown = Vec::new();
        for (i, block) in blocks.iter().enumerate() {
            // A fragment without a `name` gets a minimal sweep header.
            let text = if block.lines().any(|l| l.starts_with("name")) {
                (*block).to_owned()
            } else {
                format!("name = \"docs\"\nkernels = [\"aes-aes\"]\nmems = [\"isolated\"]\n{block}")
            };
            if let Err(r) = CampaignSpec::from_toml(&text) {
                panic!("docs toml block {i} is rejected:\n{text}\n{}", r.to_human());
            }
            shown.push(Value::Table(
                toml::parse(block).expect("the block parses alone"),
            ));
        }
        let mut schema = Paths::default();
        walk_campaign(&mut schema, &mut CampaignSpec::default());
        let undocumented: Vec<String> = schema
            .found
            .iter()
            .filter(|p| !shown.iter().any(|doc| holds(doc, p)))
            .map(|p| p.join("."))
            .collect();
        assert!(
            undocumented.is_empty(),
            "keys no docs/campaigns.md example shows: {undocumented:?}"
        );
    }

    #[test]
    fn digest_tracks_the_spec() {
        let a = CampaignSpec::from_toml(SWEEP_DOC)
            .unwrap()
            .expand()
            .unwrap();
        let mut spec = CampaignSpec::from_toml(SWEEP_DOC).unwrap();
        spec.soc.bus_width_bits = Some(32);
        let b = spec.expand().unwrap();
        assert_ne!(a.digest, b.digest);
    }
}
