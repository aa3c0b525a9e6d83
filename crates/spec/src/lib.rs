//! Declarative campaign specs for `gem5-aladdin-rs`: a TOML sweep DSL,
//! journaled runners with resume, and the shared CLI vocabulary.
//!
//! This crate is the configuration front door of the stack. A campaign
//! file names kernels, memory systems, a design space, SoC/datapath
//! overrides, an optional fault harness, and (for heterogeneous SoCs) a
//! multi-accelerator job list — and the [`campaign`] module turns it into
//! the same typed configs ([`SocConfig`](aladdin_core::SocConfig),
//! [`DatapathConfig`](aladdin_accel::DatapathConfig),
//! [`PointSpec`](aladdin_dse::PointSpec)) every programmatic sweep uses,
//! validated by the same lint passes. The [`runner`] module executes a
//! plan on the sweep fast path while journaling every finished point to
//! JSONL, and resumes interrupted campaigns without recomputing finished
//! work; [`coordinator`] workers share a campaign across processes
//! through the same executor and the same journal records.
//!
//! ```
//! use aladdin_spec::CampaignSpec;
//!
//! let spec = CampaignSpec::from_toml(r#"
//! name = "demo"
//! kernels = ["aes-aes"]
//! mems = ["dma:full", "cache"]
//! "#).expect("valid campaign");
//! let plan = spec.expand().expect("expands");
//! assert!(!plan.points.is_empty());
//! // Round trip is guaranteed.
//! assert_eq!(CampaignSpec::from_toml(&spec.to_toml()).unwrap(), spec);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used))]

pub mod campaign;
pub mod cli;
pub mod coordinator;
mod journal;
pub mod runner;
pub mod toml;

pub use campaign::{
    mem_str, CampaignPlan, CampaignSpec, DatapathSpec, FaultsSpec, JobSpec, PlannedPoint, SocSpec,
    SpacePreset, SpaceSpec,
};
pub use cli::{
    parse_cache_mode, parse_job, parse_mem_kind, parse_mem_spec, parse_opt_level, CommonArgs,
    OutputFormat,
};
pub use coordinator::{
    coordinate, journal_report, merged_path, run_worker, segment_path, CoordinateSummary,
    WorkerConfig, WorkerSummary,
};
pub use journal::{json_string, quarantine_path, read_finished, scan_journal, JournalScan};
pub use runner::{forecast_cached, plan_bounds, run_campaign, PlanBounds, RunOptions, RunSummary};
