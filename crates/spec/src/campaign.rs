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

impl SpacePreset {
    fn as_str(self) -> &'static str {
        match self {
            SpacePreset::Quick => "quick",
            SpacePreset::Standard => "standard",
            SpacePreset::Paper => "paper",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "quick" => Some(SpacePreset::Quick),
            "standard" => Some(SpacePreset::Standard),
            "paper" => Some(SpacePreset::Paper),
            _ => None,
        }
    }

    fn design_space(self) -> DesignSpace {
        match self {
            SpacePreset::Quick => DesignSpace::quick(),
            SpacePreset::Standard => DesignSpace::standard(),
            SpacePreset::Paper => DesignSpace::paper(),
        }
    }
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
        let mut space = self.preset.design_space();
        if let Some(v) = &self.lanes {
            space.lanes.clone_from(v);
        }
        if let Some(v) = &self.partitions {
            space.partitions.clone_from(v);
        }
        if let Some(v) = &self.cache_sizes {
            space.cache_sizes.clone_from(v);
        }
        if let Some(v) = &self.cache_lines {
            space.cache_lines.clone_from(v);
        }
        if let Some(v) = &self.cache_ports {
            space.cache_ports.clone_from(v);
        }
        if let Some(v) = &self.cache_assocs {
            space.cache_assocs.clone_from(v);
        }
        if let Some(v) = &self.topologies {
            space.topologies.clone_from(v);
        }
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
    /// Returns the builder's `L0201` report on zero-valued parameters.
    pub fn apply(&self) -> Result<DatapathConfig, Report> {
        let mut b = DatapathConfig::builder();
        if let Some(n) = self.lanes {
            b = b.lanes(n);
        }
        if let Some(n) = self.partition {
            b = b.partition(n);
        }
        if let Some(n) = self.ports_per_bank {
            b = b.ports_per_bank(n);
        }
        if let Some(s) = self.sync {
            b = b.sync(s);
        }
        b.build()
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
    /// `[soc.traffic] bytes` (defaults to 64 when only `period` is set).
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
    /// overridden platform is inconsistent.
    pub fn apply(&self) -> Result<SocConfig, Report> {
        let mut cfg = SocConfig::default();
        if let Some(mhz) = self.clock_mhz {
            match Clock::try_from_mhz(mhz) {
                Ok(c) => cfg.clock = c,
                Err(d) => {
                    let mut r = Report::new();
                    r.push(d);
                    return Err(r);
                }
            }
        }
        if let Some(v) = self.bus_width_bits {
            cfg.bus.width_bits = v;
        }
        if let Some(v) = self.bus_infinite_bandwidth {
            cfg.bus.infinite_bandwidth = v;
        }
        if let Some(v) = self.cache_size_bytes {
            cfg.cache.size_bytes = v;
        }
        if let Some(v) = self.cache_line_bytes {
            cfg.cache.line_bytes = v;
        }
        if let Some(v) = self.cache_assoc {
            cfg.cache.assoc = v;
        }
        if let Some(v) = self.cache_ports {
            cfg.cache.ports = v;
        }
        if let Some(v) = self.cache_mshrs {
            cfg.cache.mshrs = v;
        }
        if let Some(v) = self.cache_hit_latency {
            cfg.cache.hit_latency = v;
        }
        if let Some(v) = self.tlb_entries {
            cfg.tlb.entries = v;
        }
        if let Some(v) = self.tlb_page_bytes {
            cfg.tlb.page_bytes = v;
        }
        if let Some(v) = self.tlb_miss_cycles {
            cfg.tlb.miss_cycles = v;
        }
        if let Some(v) = self.dram_banks {
            cfg.dram.banks = v;
        }
        if let Some(v) = self.dram_row_bytes {
            cfg.dram.row_bytes = v;
        }
        if let Some(v) = self.dma_setup_cycles {
            cfg.dma.setup_cycles = v;
        }
        if let Some(v) = self.dma_chunk_bytes {
            cfg.dma.chunk_bytes = v;
        }
        if let Some(v) = self.dma_burst_bytes {
            cfg.dma.burst_bytes = v;
        }
        if let Some(v) = self.ready_bits_granule {
            cfg.ready_bits_granule = v;
        }
        if let Some(v) = self.invoke_cycles {
            cfg.invoke_cycles = v;
        }
        if let Some(period) = self.traffic_period {
            cfg.traffic = Some(TrafficConfig {
                period,
                bytes: self.traffic_bytes.unwrap_or(64),
            });
        }
        if let Some(t) = self.topology {
            cfg.topology.topology = t;
        }
        if let Some(v) = self.topology_max_burst_bytes {
            cfg.topology.protocol.max_burst_bytes = v;
        }
        if let Some(v) = self.topology_max_outstanding {
            cfg.topology.protocol.max_outstanding = v;
        }
        let report = cfg.check();
        if report.has_errors() {
            Err(report)
        } else {
            Ok(cfg)
        }
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
        if let Some(v) = self.max_cycles {
            watchdog.max_cycles = Some(v);
        }
        if let Some(v) = self.no_progress_cycles {
            watchdog.no_progress_cycles = v;
        }
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
        let dp = DatapathConfig {
            lanes: self.lanes.unwrap_or(base_dp.lanes),
            partition: self.partition.unwrap_or(base_dp.partition),
            ..base_dp
        };
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

/// A builder over an empty [`CampaignSpec`]; validation happens once in
/// [`build`](CampaignSpecBuilder::build), mirroring the config builders.
#[derive(Debug, Clone, Default)]
pub struct CampaignSpecBuilder {
    spec: CampaignSpec,
}

impl CampaignSpecBuilder {
    /// Campaign name.
    #[must_use]
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.spec.name = name.into();
        self
    }

    /// Add one swept kernel.
    #[must_use]
    pub fn kernel(mut self, name: impl Into<String>) -> Self {
        self.spec.kernels.push(name.into());
        self
    }

    /// Add one swept memory system.
    #[must_use]
    pub fn mem(mut self, mem: MemKind) -> Self {
        self.spec.mems.push(mem);
        self
    }

    /// The swept design space.
    #[must_use]
    pub fn space(mut self, space: SpaceSpec) -> Self {
        self.spec.space = space;
        self
    }

    /// Base datapath parameters.
    #[must_use]
    pub fn datapath(mut self, datapath: DatapathSpec) -> Self {
        self.spec.datapath = datapath;
        self
    }

    /// SoC platform overrides.
    #[must_use]
    pub fn soc(mut self, soc: SocSpec) -> Self {
        self.spec.soc = soc;
        self
    }

    /// Fault/watchdog harness.
    #[must_use]
    pub fn faults(mut self, faults: FaultsSpec) -> Self {
        self.spec.faults = faults;
        self
    }

    /// Add one multi-accelerator job.
    #[must_use]
    pub fn job(mut self, job: JobSpec) -> Self {
        self.spec.jobs.push(job);
        self
    }

    /// The launch-stagger axis.
    #[must_use]
    pub fn stagger(mut self, stagger: Vec<u64>) -> Self {
        self.spec.stagger = stagger;
        self
    }

    /// The accelerator-count axis (job-list prefixes).
    #[must_use]
    pub fn accel_counts(mut self, counts: Vec<u64>) -> Self {
        self.spec.accel_counts = counts;
        self
    }

    /// The bus-width axis, in bits.
    #[must_use]
    pub fn bus_widths(mut self, widths: Vec<u32>) -> Self {
        self.spec.bus_widths = widths;
        self
    }

    /// Validate and return the spec.
    ///
    /// # Errors
    ///
    /// Returns the structural-validation report (`L0261`–`L0263`) on any
    /// defect.
    pub fn build(self) -> Result<CampaignSpec, Report> {
        let report = self.spec.validate();
        if report.has_errors() {
            Err(report)
        } else {
            Ok(self.spec)
        }
    }
}

impl CampaignSpec {
    /// A builder over an empty campaign.
    #[must_use]
    pub fn builder() -> CampaignSpecBuilder {
        CampaignSpecBuilder::default()
    }

    /// Structural validation: names resolve, the campaign is either a
    /// sweep or a job set (not both, not neither), masters are unique.
    /// Platform-level validation (SoC consistency, per-point lint)
    /// happens in [`expand`](CampaignSpec::expand).
    #[must_use]
    pub fn validate(&self) -> Report {
        let mut report = Report::new();
        if self.name.is_empty() {
            report.push(
                Diagnostic::error("L0261", "campaign needs a non-empty `name`")
                    .at(Locus::Field("name")),
            );
        }
        for k in &self.kernels {
            if k.ends_with(".atrc") {
                // A `.atrc` sweep entry is a file path: opening validates
                // the header, checksum and footer in one pass, so a
                // campaign that lints clean here streams clean at run
                // time (`L0280` findings surface as `L0262` here).
                if let Err(d) = aladdin_ir::AtrcTrace::open(k) {
                    report.push(
                        Diagnostic::error("L0262", format!("trace file {k:?}: {}", d.message))
                            .at(Locus::Field("kernels")),
                    );
                }
            } else if by_name(k).is_none() {
                report.push(
                    Diagnostic::error("L0262", format!("unknown kernel {k:?}"))
                        .at(Locus::Field("kernels")),
                );
            }
        }
        for j in &self.jobs {
            if j.kernel.ends_with(".atrc") {
                report.push(
                    Diagnostic::error(
                        "L0262",
                        format!(
                            "job kernel {:?}: `.atrc` traces are supported in sweep \
                             `kernels`, not [[jobs]] (multi-accelerator jobs own their \
                             traces)",
                            j.kernel
                        ),
                    )
                    .at(Locus::Field("jobs")),
                );
            } else if by_name(&j.kernel).is_none() {
                report.push(
                    Diagnostic::error("L0262", format!("unknown kernel {:?}", j.kernel))
                        .at(Locus::Field("jobs")),
                );
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
            if !self.stagger.is_empty() {
                report.push(Diagnostic::error(
                    "L0261",
                    "`stagger` only applies to job-set campaigns",
                ));
            }
            if !self.accel_counts.is_empty() {
                report.push(Diagnostic::error(
                    "L0261",
                    "`accel_counts` only applies to job-set campaigns",
                ));
            }
            if !self.bus_widths.is_empty() {
                report.push(Diagnostic::error(
                    "L0261",
                    "`bus_widths` only applies to job-set campaigns",
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
        let mut report = Report::new();
        let mut spec = CampaignSpec::default();

        check_keys(
            &root,
            &[
                "name",
                "kernels",
                "mems",
                "stagger",
                "accel_counts",
                "bus_widths",
                "space",
                "datapath",
                "soc",
                "faults",
                "jobs",
            ],
            "",
            &mut report,
        );
        if let Some(v) = take(&root, "name") {
            spec.name = want_str(v, "name", &mut report).unwrap_or_default();
        }
        if let Some(v) = take(&root, "kernels") {
            spec.kernels = want_str_list(v, "kernels", &mut report);
        }
        if let Some(v) = take(&root, "mems") {
            for s in want_str_list(v, "mems", &mut report) {
                match parse_mem_spec(&s) {
                    Ok(kind) => spec.mems.push(kind),
                    Err(e) => report.push(
                        Diagnostic::error("L0262", format!("mems: {e}")).at(Locus::Field("mems")),
                    ),
                }
            }
        }
        if let Some(v) = take(&root, "stagger") {
            spec.stagger = want_u64_list(v, "stagger", &mut report);
        }
        if let Some(v) = take(&root, "accel_counts") {
            spec.accel_counts = want_u64_list(v, "accel_counts", &mut report);
        }
        if let Some(v) = take(&root, "bus_widths") {
            spec.bus_widths = want_u64_list(v, "bus_widths", &mut report)
                .into_iter()
                .map(|w| u32::try_from(w).unwrap_or(u32::MAX))
                .collect();
        }
        if let Some(v) = take(&root, "space") {
            if let Some(t) = want_table(v, "space", &mut report) {
                spec.space = parse_space(t, &mut report);
            }
        }
        if let Some(v) = take(&root, "datapath") {
            if let Some(t) = want_table(v, "datapath", &mut report) {
                spec.datapath = parse_datapath(t, &mut report);
            }
        }
        if let Some(v) = take(&root, "soc") {
            if let Some(t) = want_table(v, "soc", &mut report) {
                spec.soc = parse_soc(t, &mut report);
            }
        }
        if let Some(v) = take(&root, "faults") {
            if let Some(t) = want_table(v, "faults", &mut report) {
                spec.faults = parse_faults(t, &mut report);
            }
        }
        if let Some(v) = take(&root, "jobs") {
            match v {
                Value::Array(items) => {
                    for (i, item) in items.iter().enumerate() {
                        let section = format!("jobs[{i}]");
                        if let Some(t) = want_table(item, &section, &mut report) {
                            if let Some(job) = parse_job_spec(t, &section, &mut report) {
                                spec.jobs.push(job);
                            }
                        }
                    }
                }
                other => report.push(ill_typed("jobs", "array of tables", other)),
            }
        }

        report.merge(spec.validate());
        if report.has_errors() {
            Err(report)
        } else {
            Ok(spec)
        }
    }

    /// Serialize canonically. `from_toml(to_toml(spec))` reproduces
    /// `spec` exactly; defaults are omitted so hand-written files stay
    /// minimal after a round trip.
    #[must_use]
    pub fn to_toml(&self) -> String {
        let mut root: Table = Vec::new();
        root.push(("name".to_owned(), Value::Str(self.name.clone())));
        if !self.kernels.is_empty() {
            root.push((
                "kernels".to_owned(),
                Value::Array(self.kernels.iter().map(|k| Value::Str(k.clone())).collect()),
            ));
        }
        if !self.mems.is_empty() {
            root.push((
                "mems".to_owned(),
                Value::Array(self.mems.iter().map(|m| Value::Str(mem_str(*m))).collect()),
            ));
        }
        if !self.stagger.is_empty() {
            root.push((
                "stagger".to_owned(),
                Value::Array(self.stagger.iter().map(|&s| int(s)).collect()),
            ));
        }
        if !self.accel_counts.is_empty() {
            root.push((
                "accel_counts".to_owned(),
                Value::Array(self.accel_counts.iter().map(|&k| int(k)).collect()),
            ));
        }
        if !self.bus_widths.is_empty() {
            root.push((
                "bus_widths".to_owned(),
                Value::Array(self.bus_widths.iter().map(|&w| int(u64::from(w))).collect()),
            ));
        }
        if let Some(t) = space_table(&self.space) {
            root.push(("space".to_owned(), Value::Table(t)));
        }
        if let Some(t) = datapath_table(&self.datapath) {
            root.push(("datapath".to_owned(), Value::Table(t)));
        }
        if let Some(t) = soc_table(&self.soc) {
            root.push(("soc".to_owned(), Value::Table(t)));
        }
        if let Some(t) = faults_table(&self.faults) {
            root.push(("faults".to_owned(), Value::Table(t)));
        }
        if !self.jobs.is_empty() {
            root.push((
                "jobs".to_owned(),
                Value::Array(
                    self.jobs
                        .iter()
                        .map(|j| Value::Table(job_table(j)))
                        .collect(),
                ),
            ));
        }
        toml::serialize(&root)
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
        let soc = match self.soc.apply() {
            Ok(soc) => soc,
            Err(r) => {
                report.merge(r);
                return Err(report);
            }
        };
        let base_dp = match self.datapath.apply() {
            Ok(dp) => dp,
            Err(r) => {
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

        let mut points = Vec::new();
        let mut rejected = 0usize;
        if self.jobs.is_empty() {
            let space = self.space.design_space();
            let dma_points = space.dma_points();
            let cache_points = space.cache_points();
            let unconstructible = space.cache_points_unfiltered().len() - cache_points.len();
            // Topology is the outermost axis, matching the sweep runners'
            // `specs_for` ordering. An explicit `space.topologies` list
            // overrides the platform; otherwise the single `[soc.topology]`
            // (or default shared-bus) platform is kept as-is.
            let topologies: Vec<Topology> = if self.space.topologies.is_some() {
                space.topologies.clone()
            } else {
                vec![soc.topology.topology]
            };
            for &topology in &topologies {
                let soc = SocConfig {
                    topology: aladdin_core::TopologyConfig {
                        topology,
                        ..soc.topology
                    },
                    ..soc
                };
                for kernel in &self.kernels {
                    for &mem in &self.mems {
                        match mem {
                            MemKind::Isolated | MemKind::Dma(_) => {
                                for p in &dma_points {
                                    let dp = DatapathConfig {
                                        lanes: p.lanes,
                                        partition: p.partition,
                                        ..base_dp
                                    };
                                    if lint_design(&dp, &soc).has_errors() {
                                        rejected += 1;
                                        continue;
                                    }
                                    points.push(PlannedPoint::Single {
                                        kernel: kernel.clone(),
                                        point: PointSpec { kind: mem, dp, soc },
                                    });
                                }
                            }
                            MemKind::Cache => {
                                for p in &cache_points {
                                    let dp = DatapathConfig {
                                        lanes: p.lanes,
                                        partition: p.lanes,
                                        ..base_dp
                                    };
                                    let soc = p.apply(&soc);
                                    if lint_design(&dp, &soc).has_errors() {
                                        rejected += 1;
                                        continue;
                                    }
                                    points.push(PlannedPoint::Single {
                                        kernel: kernel.clone(),
                                        point: PointSpec { kind: mem, dp, soc },
                                    });
                                }
                            }
                        }
                    }
                }
            }
            rejected += unconstructible
                * topologies.len()
                * self.kernels.len()
                * self.mems.iter().filter(|m| **m == MemKind::Cache).count();
        } else {
            let staggers: Vec<u64> = if self.stagger.is_empty() {
                vec![0]
            } else {
                self.stagger.clone()
            };
            let counts: Vec<usize> = if self.accel_counts.is_empty() {
                vec![self.jobs.len()]
            } else {
                self.accel_counts.iter().map(|&k| k as usize).collect()
            };
            let widths: Vec<u32> = if self.bus_widths.is_empty() {
                vec![soc.bus.width_bits]
            } else {
                self.bus_widths.clone()
            };
            let topologies: Vec<Topology> = if self.space.topologies.is_some() {
                self.space.design_space().topologies
            } else {
                vec![soc.topology.topology]
            };
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
            let max_count = counts.iter().copied().max().unwrap_or(jobs.len());
            for &topology in &topologies {
                for &width in &widths {
                    let soc = SocConfig {
                        topology: aladdin_core::TopologyConfig {
                            topology,
                            ..soc.topology
                        },
                        bus: aladdin_mem::BusConfig {
                            width_bits: width,
                            ..soc.bus
                        },
                        ..soc
                    };
                    report.merge(soc.check());
                    report.merge(aladdin_core::validate_multi_jobs(&jobs[..max_count], &soc));
                    if report.has_errors() {
                        return Err(report);
                    }
                    for &count in &counts {
                        points.extend(staggers.iter().map(|&s| PlannedPoint::Multi {
                            stagger: s,
                            count,
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
// TOML ↔ struct plumbing

fn take<'a>(table: &'a Table, key: &str) -> Option<&'a Value> {
    table.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn check_keys(table: &Table, allowed: &[&str], section: &str, report: &mut Report) {
    for (key, _) in table {
        if !allowed.contains(&key.as_str()) {
            let path = if section.is_empty() {
                key.clone()
            } else {
                format!("{section}.{key}")
            };
            report.push(Diagnostic::error(
                "L0261",
                format!("unknown key `{path}` (known: {})", allowed.join(", ")),
            ));
        }
    }
}

fn ill_typed(path: &str, wanted: &str, got: &Value) -> Diagnostic {
    Diagnostic::error(
        "L0261",
        format!("`{path}` must be a {wanted}, got a {}", got.type_name()),
    )
}

fn want_table<'a>(v: &'a Value, path: &str, report: &mut Report) -> Option<&'a Table> {
    match v.as_table() {
        Some(t) => Some(t),
        None => {
            report.push(ill_typed(path, "table", v));
            None
        }
    }
}

fn want_str(v: &Value, path: &str, report: &mut Report) -> Option<String> {
    match v.as_str() {
        Some(s) => Some(s.to_owned()),
        None => {
            report.push(ill_typed(path, "string", v));
            None
        }
    }
}

fn want_str_list(v: &Value, path: &str, report: &mut Report) -> Vec<String> {
    match v.as_array() {
        Some(items) => items
            .iter()
            .filter_map(|item| want_str(item, path, report))
            .collect(),
        None => {
            report.push(ill_typed(path, "array of strings", v));
            Vec::new()
        }
    }
}

fn uint<T: TryFrom<i64>>(v: &Value, path: &str, report: &mut Report) -> Option<T> {
    match v.as_int().and_then(|n| T::try_from(n).ok()) {
        Some(n) => Some(n),
        None => {
            report.push(ill_typed(path, "non-negative integer", v));
            None
        }
    }
}

fn want_u64_list(v: &Value, path: &str, report: &mut Report) -> Vec<u64> {
    match v.as_array() {
        Some(items) => items
            .iter()
            .filter_map(|item| uint::<u64>(item, path, report))
            .collect(),
        None => {
            report.push(ill_typed(path, "array of integers", v));
            Vec::new()
        }
    }
}

fn want_u32_list(v: &Value, path: &str, report: &mut Report) -> Vec<u32> {
    match v.as_array() {
        Some(items) => items
            .iter()
            .filter_map(|item| uint::<u32>(item, path, report))
            .collect(),
        None => {
            report.push(ill_typed(path, "array of integers", v));
            Vec::new()
        }
    }
}

fn parse_space(t: &Table, report: &mut Report) -> SpaceSpec {
    check_keys(
        t,
        &[
            "preset",
            "lanes",
            "partitions",
            "cache_sizes",
            "cache_lines",
            "cache_ports",
            "cache_assocs",
            "topologies",
        ],
        "space",
        report,
    );
    let mut spec = SpaceSpec::default();
    if let Some(v) = take(t, "preset") {
        if let Some(s) = want_str(v, "space.preset", report) {
            match SpacePreset::parse(&s) {
                Some(p) => spec.preset = p,
                None => report.push(Diagnostic::error(
                    "L0262",
                    format!("space.preset: expected quick|standard|paper, got {s:?}"),
                )),
            }
        }
    }
    if let Some(v) = take(t, "lanes") {
        spec.lanes = Some(want_u32_list(v, "space.lanes", report));
    }
    if let Some(v) = take(t, "partitions") {
        spec.partitions = Some(want_u32_list(v, "space.partitions", report));
    }
    if let Some(v) = take(t, "cache_sizes") {
        spec.cache_sizes = Some(want_u64_list(v, "space.cache_sizes", report));
    }
    if let Some(v) = take(t, "cache_lines") {
        spec.cache_lines = Some(want_u32_list(v, "space.cache_lines", report));
    }
    if let Some(v) = take(t, "cache_ports") {
        spec.cache_ports = Some(want_u32_list(v, "space.cache_ports", report));
    }
    if let Some(v) = take(t, "cache_assocs") {
        spec.cache_assocs = Some(want_u32_list(v, "space.cache_assocs", report));
    }
    if let Some(v) = take(t, "topologies") {
        let mut topologies = Vec::new();
        for s in want_str_list(v, "space.topologies", report) {
            match Topology::parse(&s) {
                Ok(t) => topologies.push(t),
                Err(e) => report.push(
                    Diagnostic::error("L0262", format!("space.topologies: {e}"))
                        .at(Locus::Field("space")),
                ),
            }
        }
        spec.topologies = Some(topologies);
    }
    spec
}

fn parse_datapath(t: &Table, report: &mut Report) -> DatapathSpec {
    check_keys(
        t,
        &["lanes", "partition", "ports_per_bank", "sync"],
        "datapath",
        report,
    );
    let mut spec = DatapathSpec::default();
    if let Some(v) = take(t, "lanes") {
        spec.lanes = uint(v, "datapath.lanes", report);
    }
    if let Some(v) = take(t, "partition") {
        spec.partition = uint(v, "datapath.partition", report);
    }
    if let Some(v) = take(t, "ports_per_bank") {
        spec.ports_per_bank = uint(v, "datapath.ports_per_bank", report);
    }
    if let Some(v) = take(t, "sync") {
        if let Some(s) = want_str(v, "datapath.sync", report) {
            match s.as_str() {
                "barrier" => spec.sync = Some(LaneSync::Barrier),
                "free" => spec.sync = Some(LaneSync::Free),
                other => report.push(Diagnostic::error(
                    "L0262",
                    format!("datapath.sync: expected barrier|free, got {other:?}"),
                )),
            }
        }
    }
    spec
}

fn parse_soc(t: &Table, report: &mut Report) -> SocSpec {
    check_keys(
        t,
        &[
            "ready_bits_granule",
            "invoke_cycles",
            "clock",
            "bus",
            "cache",
            "tlb",
            "dram",
            "dma",
            "traffic",
            "topology",
        ],
        "soc",
        report,
    );
    let mut spec = SocSpec::default();
    if let Some(v) = take(t, "ready_bits_granule") {
        spec.ready_bits_granule = uint(v, "soc.ready_bits_granule", report);
    }
    if let Some(v) = take(t, "invoke_cycles") {
        spec.invoke_cycles = uint(v, "soc.invoke_cycles", report);
    }
    if let Some(sub) = take(t, "clock").and_then(Value::as_table) {
        check_keys(sub, &["mhz"], "soc.clock", report);
        if let Some(v) = take(sub, "mhz") {
            match v.as_float() {
                Some(f) => spec.clock_mhz = Some(f),
                None => report.push(ill_typed("soc.clock.mhz", "number", v)),
            }
        }
    }
    if let Some(sub) = take(t, "bus").and_then(Value::as_table) {
        check_keys(
            sub,
            &["width_bits", "infinite_bandwidth"],
            "soc.bus",
            report,
        );
        if let Some(v) = take(sub, "width_bits") {
            spec.bus_width_bits = uint(v, "soc.bus.width_bits", report);
        }
        if let Some(v) = take(sub, "infinite_bandwidth") {
            match v.as_bool() {
                Some(b) => spec.bus_infinite_bandwidth = Some(b),
                None => report.push(ill_typed("soc.bus.infinite_bandwidth", "boolean", v)),
            }
        }
    }
    if let Some(sub) = take(t, "cache").and_then(Value::as_table) {
        check_keys(
            sub,
            &[
                "size_bytes",
                "line_bytes",
                "assoc",
                "ports",
                "mshrs",
                "hit_latency",
            ],
            "soc.cache",
            report,
        );
        if let Some(v) = take(sub, "size_bytes") {
            spec.cache_size_bytes = uint(v, "soc.cache.size_bytes", report);
        }
        if let Some(v) = take(sub, "line_bytes") {
            spec.cache_line_bytes = uint(v, "soc.cache.line_bytes", report);
        }
        if let Some(v) = take(sub, "assoc") {
            spec.cache_assoc = uint(v, "soc.cache.assoc", report);
        }
        if let Some(v) = take(sub, "ports") {
            spec.cache_ports = uint(v, "soc.cache.ports", report);
        }
        if let Some(v) = take(sub, "mshrs") {
            spec.cache_mshrs = uint(v, "soc.cache.mshrs", report);
        }
        if let Some(v) = take(sub, "hit_latency") {
            spec.cache_hit_latency = uint(v, "soc.cache.hit_latency", report);
        }
    }
    if let Some(sub) = take(t, "tlb").and_then(Value::as_table) {
        check_keys(
            sub,
            &["entries", "page_bytes", "miss_cycles"],
            "soc.tlb",
            report,
        );
        if let Some(v) = take(sub, "entries") {
            spec.tlb_entries = uint(v, "soc.tlb.entries", report);
        }
        if let Some(v) = take(sub, "page_bytes") {
            spec.tlb_page_bytes = uint(v, "soc.tlb.page_bytes", report);
        }
        if let Some(v) = take(sub, "miss_cycles") {
            spec.tlb_miss_cycles = uint(v, "soc.tlb.miss_cycles", report);
        }
    }
    if let Some(sub) = take(t, "dram").and_then(Value::as_table) {
        check_keys(sub, &["banks", "row_bytes"], "soc.dram", report);
        if let Some(v) = take(sub, "banks") {
            spec.dram_banks = uint(v, "soc.dram.banks", report);
        }
        if let Some(v) = take(sub, "row_bytes") {
            spec.dram_row_bytes = uint(v, "soc.dram.row_bytes", report);
        }
    }
    if let Some(sub) = take(t, "dma").and_then(Value::as_table) {
        check_keys(
            sub,
            &["setup_cycles", "chunk_bytes", "burst_bytes"],
            "soc.dma",
            report,
        );
        if let Some(v) = take(sub, "setup_cycles") {
            spec.dma_setup_cycles = uint(v, "soc.dma.setup_cycles", report);
        }
        if let Some(v) = take(sub, "chunk_bytes") {
            spec.dma_chunk_bytes = uint(v, "soc.dma.chunk_bytes", report);
        }
        if let Some(v) = take(sub, "burst_bytes") {
            spec.dma_burst_bytes = uint(v, "soc.dma.burst_bytes", report);
        }
    }
    if let Some(sub) = take(t, "traffic").and_then(Value::as_table) {
        check_keys(sub, &["period", "bytes"], "soc.traffic", report);
        if let Some(v) = take(sub, "period") {
            spec.traffic_period = uint(v, "soc.traffic.period", report);
        }
        if let Some(v) = take(sub, "bytes") {
            spec.traffic_bytes = uint(v, "soc.traffic.bytes", report);
        }
    }
    if let Some(sub) = take(t, "topology").and_then(Value::as_table) {
        check_keys(
            sub,
            &["spec", "max_burst_bytes", "max_outstanding"],
            "soc.topology",
            report,
        );
        if let Some(v) = take(sub, "spec") {
            if let Some(s) = want_str(v, "soc.topology.spec", report) {
                match Topology::parse(&s) {
                    Ok(t) => spec.topology = Some(t),
                    Err(e) => report.push(
                        Diagnostic::error("L0262", format!("soc.topology.spec: {e}"))
                            .at(Locus::Field("soc")),
                    ),
                }
            }
        }
        if let Some(v) = take(sub, "max_burst_bytes") {
            spec.topology_max_burst_bytes = uint(v, "soc.topology.max_burst_bytes", report);
        }
        if let Some(v) = take(sub, "max_outstanding") {
            spec.topology_max_outstanding = uint(v, "soc.topology.max_outstanding", report);
        }
    }
    spec
}

fn parse_faults(t: &Table, report: &mut Report) -> FaultsSpec {
    check_keys(
        t,
        &["seed", "max_cycles", "no_progress_cycles"],
        "faults",
        report,
    );
    let mut spec = FaultsSpec::default();
    if let Some(v) = take(t, "seed") {
        spec.seed = uint(v, "faults.seed", report);
    }
    if let Some(v) = take(t, "max_cycles") {
        spec.max_cycles = uint(v, "faults.max_cycles", report);
    }
    if let Some(v) = take(t, "no_progress_cycles") {
        spec.no_progress_cycles = uint(v, "faults.no_progress_cycles", report);
    }
    spec
}

fn parse_job_spec(t: &Table, section: &str, report: &mut Report) -> Option<JobSpec> {
    check_keys(
        t,
        &["kernel", "mem", "launch", "master", "lanes", "partition"],
        section,
        report,
    );
    let kernel = take(t, "kernel")
        .and_then(|v| want_str(v, &format!("{section}.kernel"), report))
        .or_else(|| {
            report.push(Diagnostic::error(
                "L0261",
                format!("{section}: missing `kernel`"),
            ));
            None
        })?;
    let mem_src = take(t, "mem")
        .and_then(|v| want_str(v, &format!("{section}.mem"), report))
        .or_else(|| {
            report.push(Diagnostic::error(
                "L0261",
                format!("{section}: missing `mem`"),
            ));
            None
        })?;
    let mem = match parse_mem_spec(&mem_src) {
        Ok(kind) => kind,
        Err(e) => {
            report.push(Diagnostic::error("L0262", format!("{section}.mem: {e}")));
            return None;
        }
    };
    let mut job = JobSpec::new(kernel, mem);
    if let Some(v) = take(t, "launch") {
        job.launch = uint(v, &format!("{section}.launch"), report).unwrap_or(0);
    }
    if let Some(v) = take(t, "master") {
        job.master = uint(v, &format!("{section}.master"), report);
    }
    if let Some(v) = take(t, "lanes") {
        job.lanes = uint(v, &format!("{section}.lanes"), report);
    }
    if let Some(v) = take(t, "partition") {
        job.partition = uint(v, &format!("{section}.partition"), report);
    }
    Some(job)
}

#[allow(clippy::cast_possible_wrap)]
fn int(n: u64) -> Value {
    Value::Int(n as i64)
}

fn push_u64(t: &mut Table, key: &str, v: Option<u64>) {
    if let Some(n) = v {
        t.push((key.to_owned(), int(n)));
    }
}

fn push_u32(t: &mut Table, key: &str, v: Option<u32>) {
    push_u64(t, key, v.map(u64::from));
}

fn non_empty(t: Table) -> Option<Table> {
    if t.is_empty() {
        None
    } else {
        Some(t)
    }
}

fn space_table(s: &SpaceSpec) -> Option<Table> {
    let mut t = Table::new();
    if s.preset != SpacePreset::default() {
        t.push((
            "preset".to_owned(),
            Value::Str(s.preset.as_str().to_owned()),
        ));
    }
    let u32s = |v: &Vec<u32>| Value::Array(v.iter().map(|&n| int(u64::from(n))).collect());
    if let Some(v) = &s.lanes {
        t.push(("lanes".to_owned(), u32s(v)));
    }
    if let Some(v) = &s.partitions {
        t.push(("partitions".to_owned(), u32s(v)));
    }
    if let Some(v) = &s.cache_sizes {
        t.push((
            "cache_sizes".to_owned(),
            Value::Array(v.iter().map(|&n| int(n)).collect()),
        ));
    }
    if let Some(v) = &s.cache_lines {
        t.push(("cache_lines".to_owned(), u32s(v)));
    }
    if let Some(v) = &s.cache_ports {
        t.push(("cache_ports".to_owned(), u32s(v)));
    }
    if let Some(v) = &s.cache_assocs {
        t.push(("cache_assocs".to_owned(), u32s(v)));
    }
    if let Some(v) = &s.topologies {
        t.push((
            "topologies".to_owned(),
            Value::Array(v.iter().map(|t| Value::Str(t.spec_string())).collect()),
        ));
    }
    non_empty(t)
}

fn datapath_table(s: &DatapathSpec) -> Option<Table> {
    let mut t = Table::new();
    push_u32(&mut t, "lanes", s.lanes);
    push_u32(&mut t, "partition", s.partition);
    push_u32(&mut t, "ports_per_bank", s.ports_per_bank);
    if let Some(sync) = s.sync {
        let name = match sync {
            LaneSync::Barrier => "barrier",
            LaneSync::Free => "free",
        };
        t.push(("sync".to_owned(), Value::Str(name.to_owned())));
    }
    non_empty(t)
}

fn soc_table(s: &SocSpec) -> Option<Table> {
    let mut t = Table::new();
    push_u64(&mut t, "ready_bits_granule", s.ready_bits_granule);
    push_u64(&mut t, "invoke_cycles", s.invoke_cycles);
    if let Some(mhz) = s.clock_mhz {
        t.push((
            "clock".to_owned(),
            Value::Table(vec![("mhz".to_owned(), Value::Float(mhz))]),
        ));
    }
    let mut bus = Table::new();
    push_u32(&mut bus, "width_bits", s.bus_width_bits);
    if let Some(b) = s.bus_infinite_bandwidth {
        bus.push(("infinite_bandwidth".to_owned(), Value::Bool(b)));
    }
    if let Some(bus) = non_empty(bus) {
        t.push(("bus".to_owned(), Value::Table(bus)));
    }
    let mut cache = Table::new();
    push_u64(&mut cache, "size_bytes", s.cache_size_bytes);
    push_u32(&mut cache, "line_bytes", s.cache_line_bytes);
    push_u32(&mut cache, "assoc", s.cache_assoc);
    push_u32(&mut cache, "ports", s.cache_ports);
    push_u64(&mut cache, "mshrs", s.cache_mshrs.map(|n| n as u64));
    push_u64(&mut cache, "hit_latency", s.cache_hit_latency);
    if let Some(cache) = non_empty(cache) {
        t.push(("cache".to_owned(), Value::Table(cache)));
    }
    let mut tlb = Table::new();
    push_u64(&mut tlb, "entries", s.tlb_entries.map(|n| n as u64));
    push_u64(&mut tlb, "page_bytes", s.tlb_page_bytes);
    push_u64(&mut tlb, "miss_cycles", s.tlb_miss_cycles);
    if let Some(tlb) = non_empty(tlb) {
        t.push(("tlb".to_owned(), Value::Table(tlb)));
    }
    let mut dram = Table::new();
    push_u64(&mut dram, "banks", s.dram_banks.map(|n| n as u64));
    push_u64(&mut dram, "row_bytes", s.dram_row_bytes);
    if let Some(dram) = non_empty(dram) {
        t.push(("dram".to_owned(), Value::Table(dram)));
    }
    let mut dma = Table::new();
    push_u64(&mut dma, "setup_cycles", s.dma_setup_cycles);
    push_u64(&mut dma, "chunk_bytes", s.dma_chunk_bytes);
    push_u32(&mut dma, "burst_bytes", s.dma_burst_bytes);
    if let Some(dma) = non_empty(dma) {
        t.push(("dma".to_owned(), Value::Table(dma)));
    }
    let mut traffic = Table::new();
    push_u64(&mut traffic, "period", s.traffic_period);
    push_u32(&mut traffic, "bytes", s.traffic_bytes);
    if let Some(traffic) = non_empty(traffic) {
        t.push(("traffic".to_owned(), Value::Table(traffic)));
    }
    let mut topology = Table::new();
    if let Some(topo) = s.topology {
        topology.push(("spec".to_owned(), Value::Str(topo.spec_string())));
    }
    push_u32(&mut topology, "max_burst_bytes", s.topology_max_burst_bytes);
    push_u32(&mut topology, "max_outstanding", s.topology_max_outstanding);
    if let Some(topology) = non_empty(topology) {
        t.push(("topology".to_owned(), Value::Table(topology)));
    }
    non_empty(t)
}

fn faults_table(s: &FaultsSpec) -> Option<Table> {
    let mut t = Table::new();
    push_u64(&mut t, "seed", s.seed);
    push_u64(&mut t, "max_cycles", s.max_cycles);
    push_u64(&mut t, "no_progress_cycles", s.no_progress_cycles);
    non_empty(t)
}

fn job_table(j: &JobSpec) -> Table {
    let mut t = Table::new();
    t.push(("kernel".to_owned(), Value::Str(j.kernel.clone())));
    t.push(("mem".to_owned(), Value::Str(mem_str(j.mem))));
    if j.launch != 0 {
        t.push(("launch".to_owned(), int(j.launch)));
    }
    push_u64(&mut t, "master", j.master.map(u64::from));
    push_u32(&mut t, "lanes", j.lanes);
    push_u32(&mut t, "partition", j.partition);
    t
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

    #[test]
    fn builder_validates_at_build() {
        let spec = CampaignSpec::builder()
            .name("built")
            .kernel("aes-aes")
            .mem(MemKind::Cache)
            .build()
            .expect("valid");
        assert_eq!(spec.name, "built");
        assert!(
            CampaignSpec::builder().name("x").build().is_err(),
            "empty campaign"
        );
        assert!(CampaignSpec::builder()
            .name("x")
            .kernel("nope")
            .mem(MemKind::Cache)
            .build()
            .unwrap_err()
            .has_code("L0262"));
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
