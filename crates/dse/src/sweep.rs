//! Multithreaded sweep runners — the sweep-throughput fast path.
//!
//! Every sweep runs one per-point step, driven by one parallel engine
//! ([`sweep_engine`]). The step layers four optimizations, all invisible
//! in the results (bit-exact against running each point's `aladdin-core`
//! flow directly):
//!
//! 1. **Result cache** — each point is looked up in the content-addressed
//!    cache before simulating, and stored after.
//! 2. **Shared DDDG preparation** — the dependence graph depends only on
//!    the trace, so one [`PreparedDddg`] per sweep is built lazily and
//!    shared by every point and every worker thread; each point derives
//!    its lanes and barrier rounds from it.
//! 3. **Bound pruning** (opt-in) — a point whose static cycle lower bound
//!    and power floor are strictly dominated by a finished result is
//!    skipped, never silently dropped.
//! 4. **Workspace reuse** — each worker owns one [`SchedulerWorkspace`],
//!    so the scheduler's heaps and vectors are allocated once per thread,
//!    not once per design point.
//!
//! [`sweep`]/[`sweep_perf`] walk one side of a [`DesignSpace`],
//! [`sweep_points`]/[`sweep_points_streaming`] run an arbitrary point list,
//! and [`run_point_cached`] runs the same step for one point on the
//! calling thread. Each sweep folds its [`SweepPerf`] roll-up into the
//! process-wide accumulator [`crate::global_perf`].

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use aladdin_accel::{DatapathConfig, PreparedDddg, SchedulerWorkspace};
use aladdin_core::{
    simulate_source_prepared, FlowResult, FlowSpec, MemKind, SimError, SimHarness, SocConfig,
    TraceSource, Watchdog,
};
use aladdin_ir::Trace;

use crate::cache::{self, SweepCacheMode};
use crate::perf::{record_global, SweepPerf};
use crate::space::DesignSpace;

/// Run `job` once per index in `0..n` across all available cores. Each
/// worker owns a state built by `init` (scheduler workspaces, here).
/// Results land in pre-allocated per-index slots — no lock on the result
/// path, no final sort. Once any `job` returns `Break`, workers stop
/// claiming indices: jobs already running finish, and every index never
/// claimed stays `None`.
fn parallel_map<T, S, I, F>(n: usize, init: I, job: F) -> Vec<Option<T>>
where
    T: Send + Sync,
    S: Send,
    I: Fn() -> S + Sync,
    F: Fn(usize, &mut S) -> ControlFlow<T, T> + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
        .min(n.max(1));
    let next = AtomicUsize::new(0);
    // Publishes no data (slots are read after the scope joins).
    let stop = AtomicBool::new(false);
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                while !stop.load(Ordering::Relaxed) {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let r = match job(i, &mut state) {
                        ControlFlow::Continue(r) => r,
                        ControlFlow::Break(r) => {
                            stop.store(true, Ordering::Relaxed);
                            r
                        }
                    };
                    // Indices are claimed uniquely, so the slot is empty.
                    let _ = slots[i].set(r);
                }
            });
        }
    });
    slots.into_iter().map(OnceLock::into_inner).collect()
}

/// One design point as the sweep engine sees it: which flow, which
/// datapath, which (point-adjusted) SoC.
///
/// This is the unit the campaign layer (`aladdin-spec`) expands TOML specs
/// into; [`sweep_points`] and [`sweep_engine`] run arbitrary lists of them
/// on the same fast path as the [`DesignSpace`]-driven sweeps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PointSpec {
    /// Which memory-system flow the point runs under.
    pub kind: MemKind,
    /// The accelerator datapath.
    pub dp: DatapathConfig,
    /// The (point-adjusted) SoC configuration.
    pub soc: SocConfig,
}

/// Derive the engine's point list for `kind`: cache sweeps walk the cache
/// geometry space (each point adjusting the SoC), everything else walks
/// the lanes × partitions space; both are crossed with the space's
/// interconnect-topology axis (the default spaces pin the shared bus, so
/// the cross is a no-op there).
fn specs_for(space: &DesignSpace, soc: &SocConfig, kind: MemKind) -> Vec<PointSpec> {
    let base: Vec<PointSpec> = match kind {
        MemKind::Cache => space
            .cache_points()
            .iter()
            .map(|p| PointSpec {
                kind,
                dp: p.datapath(),
                soc: p.apply(soc),
            })
            .collect(),
        MemKind::Isolated | MemKind::Dma(_) => space
            .dma_points()
            .iter()
            .map(|p| PointSpec {
                kind,
                dp: p.datapath(),
                soc: *soc,
            })
            .collect(),
    };
    if space.topologies.is_empty() {
        return base;
    }
    let mut out = Vec::with_capacity(base.len() * space.topologies.len());
    for &topology in &space.topologies {
        out.extend(base.iter().map(|s| {
            let mut s = *s;
            s.soc.topology.topology = topology;
            s
        }));
    }
    out
}

/// One design point skipped by a pruned sweep: its static cycle lower
/// bound and power floor were strictly dominated by an already-finished
/// result, so it provably cannot reach the Pareto frontier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrunedPoint {
    /// Index into the sweep's point list.
    pub index: usize,
    /// The point's certified static cycle lower bound (`aladdin-lint`).
    pub lo: u64,
    /// The point's static average-power floor in mW.
    pub power_floor_mw: f64,
    /// Cycles of the finished result that dominated it.
    pub by_cycles: u64,
    /// Average power (mW) of the finished result that dominated it.
    pub by_power_mw: f64,
}

/// Outcome of one point of a [`sweep_engine`] run.
#[derive(Debug, Clone)]
pub enum PointOutcome {
    /// Simulated (or served bit-exactly from the result cache).
    Done(Box<FlowResult>),
    /// Simulation failed under the harness.
    Failed(SimError),
    /// Statically skipped: bounds dominated by a finished result.
    Pruned(PrunedPoint),
}

impl PointOutcome {
    /// The flow result, when the point completed.
    #[must_use]
    pub fn result(&self) -> Option<&FlowResult> {
        match self {
            PointOutcome::Done(r) => Some(r),
            PointOutcome::Failed(_) | PointOutcome::Pruned(_) => None,
        }
    }

    /// The outcome of an unpruned sweep as a `Result`.
    fn into_result(self) -> Result<FlowResult, SimError> {
        match self {
            PointOutcome::Done(r) => Ok(*r),
            PointOutcome::Failed(e) => Err(e),
            PointOutcome::Pruned(p) => {
                unreachable!("point {} pruned by an unpruned sweep", p.index)
            }
        }
    }
}

/// What a sweep runs against.
#[derive(Clone, Copy)]
pub enum SweepSource<'a> {
    /// A trace already loaded: in memory, or an `.atrc` file.
    Loaded(TraceSource<'a>),
    /// An in-memory trace known first by its [`Trace::fingerprint`].
    /// A sweep whose every point is cached never calls `build`; otherwise
    /// it calls it once, before any point runs, and every point and
    /// worker shares the trace, like the prepared graph.
    Lazy {
        /// The fingerprint of the trace `build` returns.
        fingerprint: u128,
        /// Materializes the trace; called at most once per sweep.
        build: &'a (dyn Fn() -> Trace + Sync),
    },
}

impl<'a> From<TraceSource<'a>> for SweepSource<'a> {
    fn from(source: TraceSource<'a>) -> Self {
        SweepSource::Loaded(source)
    }
}

impl<'a> From<&'a Trace> for SweepSource<'a> {
    fn from(trace: &'a Trace) -> Self {
        SweepSource::Loaded(TraceSource::Memory(trace))
    }
}

/// Whether a sweep under `harness` runs its points through the result
/// cache at all: only with an inert harness, an empty
/// [`FaultPlan`](aladdin_core::FaultPlan) and the default [`Watchdog`]
/// (see [`sweep_engine`] for why).
fn inert(harness: &SimHarness) -> bool {
    harness.plan.is_empty() && harness.watchdog == Watchdog::default()
}

/// Whether a sweep of an in-memory trace under `harness` can be served
/// from the result cache: the harness is inert and a cache tier is on.
/// When it cannot, every point simulates, so a caller may as well load
/// the trace up front rather than fingerprint it first.
#[must_use]
pub fn cache_gate_open(harness: &SimHarness) -> bool {
    inert(harness) && cache::mode() != SweepCacheMode::Off
}

/// The shared state of one sweep: its inputs, the cache and pruning
/// gates, the lazily prepared graph, the pruning witnesses, and the perf
/// counters. [`Sweep::step`] is the one per-point step every entry point
/// runs.
struct Sweep<'a> {
    source: SweepSource<'a>,
    specs: &'a [PointSpec],
    harness: &'a SimHarness,
    /// Each point's result-cache key when the sweep uses the cache,
    /// `None` when it bypasses it (see [`sweep_engine`] for the policy).
    keys: Option<Vec<String>>,
    /// Whether bound pruning is engaged (only ever under the cache gate).
    prune: bool,
    /// A [`SweepSource::Lazy`] source's trace, built at most once and
    /// shared by every point and worker.
    trace: OnceLock<Trace>,
    /// The trace's graph, shared by every point and worker. Lazy so a
    /// fully cache-warm sweep builds no graph at all; `.atrc` sources
    /// never build one.
    prep: OnceLock<PreparedDddg>,
    /// Finished `(cycles, avg power)` pairs — the pruning witnesses.
    witnesses: Mutex<Vec<(u64, f64)>>,
    hits: AtomicU64,
    stepped: AtomicU64,
    events: AtomicU64,
    failures: AtomicU64,
    pruned: AtomicU64,
    streamed: AtomicU64,
    peak_resident: AtomicU64,
    t0: Instant,
}

impl<'a> Sweep<'a> {
    fn new(
        source: SweepSource<'a>,
        specs: &'a [PointSpec],
        harness: &'a SimHarness,
        prune: bool,
    ) -> Self {
        let cache_fp = match source {
            _ if !inert(harness) => None,
            SweepSource::Loaded(TraceSource::Atrc(_)) => None,
            SweepSource::Loaded(TraceSource::Memory(trace)) => Some(trace.fingerprint()),
            SweepSource::Lazy { fingerprint, .. } => Some(fingerprint),
        };
        let keys = cache_fp.map(|fp| {
            specs
                .iter()
                .map(|s| cache::point_key(fp, s.kind, &s.dp, &s.soc))
                .collect::<Vec<_>>()
        });
        Sweep {
            source,
            specs,
            harness,
            prune: prune && keys.is_some(),
            keys,
            trace: OnceLock::new(),
            prep: OnceLock::new(),
            witnesses: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            stepped: AtomicU64::new(0),
            events: AtomicU64::new(0),
            failures: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
            streamed: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            t0: Instant::now(),
        }
    }

    /// The trace to simulate, building a lazy source's trace on first use.
    fn loaded(&self) -> TraceSource<'_> {
        match self.source {
            SweepSource::Loaded(source) => source,
            SweepSource::Lazy { build, .. } => TraceSource::Memory(self.trace.get_or_init(build)),
        }
    }

    /// Point `i`: cache gate → shared trace and prepared graph → optional
    /// bound prune → simulate → cache insert, counting into the perf
    /// counters.
    fn step(&self, i: usize, ws: &mut SchedulerWorkspace) -> PointOutcome {
        let s = &self.specs[i];
        let key = self.keys.as_ref().map(|keys| keys[i].as_str());
        if let Some(hit) = key.and_then(cache::lookup) {
            return self.hit(hit);
        }
        let source = self.loaded();
        let prep = match source {
            TraceSource::Memory(trace) => {
                let prep = self.prep.get_or_init(|| PreparedDddg::new(trace, &s.dp));
                if let Some(p) = self.dominated(i, trace, prep) {
                    self.pruned.fetch_add(1, Ordering::Relaxed);
                    return PointOutcome::Pruned(p);
                }
                Some(prep)
            }
            TraceSource::Atrc(_) => None,
        };
        let mut spec = FlowSpec::new(s.kind).with_harness(self.harness);
        if let Some(prep) = prep {
            spec = spec.with_prepared(prep);
        }
        match simulate_source_prepared(&source, &s.dp, &s.soc, &spec, ws) {
            Ok(run) => {
                let r = run.result;
                self.stepped
                    .fetch_add(r.sched_stepped_cycles, Ordering::Relaxed);
                self.events.fetch_add(r.sched_events, Ordering::Relaxed);
                if let Some(p) = run.peak_resident_nodes {
                    self.streamed.fetch_add(1, Ordering::Relaxed);
                    self.peak_resident.fetch_max(p, Ordering::Relaxed);
                }
                if let Some(key) = key {
                    cache::insert(key, &r);
                }
                self.witness(&r);
                PointOutcome::Done(Box::new(r))
            }
            Err(e) => {
                self.failures.fetch_add(1, Ordering::Relaxed);
                PointOutcome::Failed(e)
            }
        }
    }

    /// A point served from the result cache.
    fn hit(&self, r: FlowResult) -> PointOutcome {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.witness(&r);
        PointOutcome::Done(Box::new(r))
    }

    /// The pruning check: the finished result, if any, that strictly
    /// beats point `i`'s static cycle lower bound and power floor.
    fn dominated(&self, i: usize, trace: &Trace, prep: &PreparedDddg) -> Option<PrunedPoint> {
        if !self.prune {
            return None;
        }
        let s = &self.specs[i];
        let b = aladdin_lint::bounds_for_prepared(trace, prep, &s.dp, &s.soc, s.kind, self.harness);
        let floor = aladdin_lint::static_power_floor_mw(trace, &s.dp, &s.soc, s.kind, &b);
        self.witnesses
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
            .find(|&&(c, p)| c < b.lo && p < floor)
            .map(|&(by_cycles, by_power_mw)| PrunedPoint {
                index: i,
                lo: b.lo,
                power_floor_mw: floor,
                by_cycles,
                by_power_mw,
            })
    }

    /// Record a finished result as a pruning witness.
    fn witness(&self, r: &FlowResult) {
        if self.prune {
            self.witnesses
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push((r.total_cycles, r.energy.avg_power_mw()));
        }
    }

    /// Step every point across all cores, handing each outcome to `sink`
    /// as it completes; see [`sweep_engine`].
    fn run(
        &self,
        sink: &(dyn Fn(usize, &PointOutcome) -> ControlFlow<()> + Sync),
    ) -> Vec<Option<PointOutcome>> {
        // A lazy source whose every point is cached is served here, with
        // no trace and no worker. Otherwise its trace is built here, on
        // the calling thread: built by a short-lived worker, its freed
        // megabytes would stay resident in that worker's allocator arena.
        if let SweepSource::Lazy { build, .. } = self.source {
            let hits: Option<Vec<FlowResult>> = self
                .keys
                .as_ref()
                .and_then(|keys| keys.iter().map(|k| cache::lookup(k)).collect());
            if let Some(hits) = hits {
                let mut outcomes: Vec<Option<PointOutcome>> = vec![None; hits.len()];
                for (i, hit) in hits.into_iter().enumerate() {
                    let outcome = self.hit(hit);
                    let flow = sink(i, &outcome);
                    outcomes[i] = Some(outcome);
                    if flow.is_break() {
                        break;
                    }
                }
                return outcomes;
            }
            self.trace.get_or_init(build);
        }
        parallel_map(self.specs.len(), SchedulerWorkspace::new, |i, ws| {
            let outcome = self.step(i, ws);
            match sink(i, &outcome) {
                ControlFlow::Continue(()) => ControlFlow::Continue(outcome),
                ControlFlow::Break(()) => ControlFlow::Break(outcome),
            }
        })
    }

    /// Roll the counters up over the `points` steps that ran and fold
    /// them into [`crate::global_perf`].
    fn finish(self, points: u64) -> SweepPerf {
        let perf = SweepPerf {
            points,
            cache_hits: self.hits.into_inner(),
            stepped_cycles: self.stepped.into_inner(),
            events: self.events.into_inner(),
            failures: self.failures.into_inner(),
            pruned: self.pruned.into_inner(),
            streamed_points: self.streamed.into_inner(),
            peak_resident_nodes: self.peak_resident.into_inner(),
            wall_ns: u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
        };
        record_global(&perf);
        perf
    }
}

/// The sweep engine: run every point of `specs` against `source` across
/// all cores, invoking `sink` once per point *as it completes* (from
/// worker threads, in completion order — not point order), and return one
/// outcome per point in point order.
///
/// Campaign runners use the sink to stream per-point results to a journal
/// while the sweep is still going, so an interrupted run loses at most
/// the points in flight. A sink that returns `Break` (a journal append
/// failed) cancels the sweep: workers stop claiming points, the points in
/// flight finish and still reach the sink, and every point never started
/// is `None` in the returned vector and absent from the [`SweepPerf`].
///
/// **Sources.** An in-memory source shares one lazily-built
/// [`PreparedDddg`] across every point and worker; an `.atrc` source
/// shares the *encoded bytes* instead (every worker streams its own decode
/// through the windowed scheduler, so sweep node memory stays
/// O(workers × window) regardless of trace length). A
/// [`SweepSource::Lazy`] source keys the cache by its fingerprint alone:
/// a fully cache-warm sweep of one is served on the calling thread and
/// builds neither a trace nor a graph, and any miss materializes the
/// trace once, up front.
///
/// **Caching policy.** Points run through the result cache only when the
/// source is in memory and the harness is inert — an empty
/// [`FaultPlan`](aladdin_core::FaultPlan) *and* the default [`Watchdog`].
/// Fault-injected runs bypass it in both directions (the key does not
/// include the plan, and a perturbed result must never be served to — or
/// recorded for — a clean sweep); runs under a non-default watchdog bypass
/// it too, because a cached success could mask a timeout the tighter
/// watchdog would have produced. `.atrc` points bypass it because the
/// windowed scheduler is bit-exact with the materialized path only when
/// its window covers the largest barrier round, which a streamed source
/// cannot verify ahead of time.
///
/// **Pruning.** With `prune`, before simulating a point its static
/// `[lo, ∞)` cycle interval and power floor (from `aladdin-lint`'s
/// [`bounds_for_prepared`](aladdin_lint::bounds_for_prepared)) are
/// compared against every already-finished result; if some result is
/// *strictly* better on both objectives, the point is skipped and
/// reported as [`PointOutcome::Pruned`]. This preserves the Pareto
/// frontier exactly: a pruned point `c` has a witness `s` with
/// `cycles(s) < lo ≤ cycles(c)` and `power(s) < floor ≤ power(c)`, so `c`
/// could never have been kept by [`crate::pareto_frontier`], and non-kept
/// points never influence which other points are kept. Pruning engages
/// only under the cache gate above (under fault injection the campaign's
/// purpose is observing perturbations, not skipping them). It is
/// opportunistic — the *set* of pruned points depends on completion order;
/// the surviving frontier does not.
#[must_use]
pub fn sweep_engine(
    source: SweepSource,
    specs: &[PointSpec],
    harness: &SimHarness,
    prune: bool,
    sink: &(dyn Fn(usize, &PointOutcome) -> ControlFlow<()> + Sync),
) -> (Vec<Option<PointOutcome>>, SweepPerf) {
    let sweep = Sweep::new(source, specs, harness, prune);
    let outcomes = sweep.run(sink);
    let ran = outcomes.iter().flatten().count() as u64;
    (outcomes, sweep.finish(ran))
}

/// The results of a sweep whose sink never cancels it.
fn into_results(outcomes: Vec<Option<PointOutcome>>) -> Vec<Result<FlowResult, SimError>> {
    outcomes
        .into_iter()
        .map(|o| {
            o.expect("an uncancelled sweep runs every point")
                .into_result()
        })
        .collect()
}

/// Run an arbitrary list of design points against an in-memory trace on
/// the sweep fast path, returning one `Result` slot per point in point
/// order. The unpruned [`sweep_engine`], for callers whose point lists do
/// not come from a [`DesignSpace`].
#[must_use]
pub fn sweep_points(
    trace: &Trace,
    specs: &[PointSpec],
    harness: &SimHarness,
) -> (Vec<Result<FlowResult, SimError>>, SweepPerf) {
    let (outcomes, perf) = sweep_engine(trace.into(), specs, harness, false, &|_, _| {
        ControlFlow::Continue(())
    });
    (into_results(outcomes), perf)
}

/// [`sweep_points`], invoking `sink` once per completed point as it
/// completes — see [`sweep_engine`] for the sink and caching contracts.
#[must_use]
pub fn sweep_points_streaming(
    trace: &Trace,
    specs: &[PointSpec],
    harness: &SimHarness,
    sink: &(dyn Fn(usize, &Result<FlowResult, SimError>) + Sync),
) -> (Vec<Result<FlowResult, SimError>>, SweepPerf) {
    let (outcomes, perf) = sweep_engine(trace.into(), specs, harness, false, &|i, o| {
        sink(i, &o.clone().into_result());
        ControlFlow::Continue(())
    });
    (into_results(outcomes), perf)
}

/// Run one design point through the result cache on the calling thread:
/// a hit returns the stored result (bit-identical to re-simulating), a
/// miss simulates and stores the outcome. The same per-point step as
/// every sweep, for binaries that evaluate single points.
///
/// # Panics
///
/// Panics if the underlying flow does (e.g. a DMA configuration that
/// cannot make progress).
#[must_use]
pub fn run_point_cached(
    trace: &Trace,
    dp: &DatapathConfig,
    soc: &SocConfig,
    kind: MemKind,
) -> FlowResult {
    let spec = [PointSpec {
        kind,
        dp: *dp,
        soc: *soc,
    }];
    let harness = SimHarness::default();
    let sweep = Sweep::new(trace.into(), &spec, &harness, false);
    let outcome = sweep.step(0, &mut SchedulerWorkspace::new());
    sweep.finish(1);
    outcome.into_result().unwrap_or_else(|e| panic!("{e}"))
}

/// Sweep the design space under the memory system named by `kind`.
///
/// Isolated and DMA sweeps walk the lanes × partitions space; cache
/// sweeps walk the cache geometry space with each point's geometry
/// applied to `soc`.
#[must_use]
pub fn sweep(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    kind: MemKind,
) -> Vec<FlowResult> {
    sweep_perf(trace, space, soc, kind).0
}

/// [`sweep`], also returning the sweep's [`SweepPerf`] roll-up.
///
/// # Panics
///
/// Panics if any point's simulation fails — the clean harness makes that
/// a bug, not an outcome. Use [`sweep_points`] under a [`SimHarness`] to
/// get failures back as values.
#[must_use]
pub fn sweep_perf(
    trace: &Trace,
    space: &DesignSpace,
    soc: &SocConfig,
    kind: MemKind,
) -> (Vec<FlowResult>, SweepPerf) {
    let specs = specs_for(space, soc, kind);
    let (results, perf) = sweep_points(trace, &specs, &SimHarness::default());
    let results = results
        .into_iter()
        .map(|r| r.unwrap_or_else(|e| panic!("{e}")))
        .collect();
    (results, perf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{
        reset_sweep_cache, set_sweep_cache_dir, set_sweep_cache_mode, SweepCacheMode,
    };
    use crate::pareto::{edp_optimal, pareto_frontier};
    use crate::preflight::{preflight_cache, preflight_dma};
    use aladdin_core::{simulate, DmaOptLevel, FaultPlan};
    use aladdin_workloads::by_name;

    const FULL: MemKind = MemKind::Dma(DmaOptLevel::Full);

    /// A clean harness whose watchdog trips at `max_cycles`.
    fn tight_watchdog(max_cycles: u64) -> SimHarness {
        SimHarness {
            plan: FaultPlan::none(),
            watchdog: Watchdog {
                max_cycles: Some(max_cycles),
                ..Watchdog::default()
            },
        }
    }

    #[test]
    fn sweeps_cover_their_spaces() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let iso = sweep(&trace, &space, &soc, MemKind::Isolated);
        assert_eq!(iso.len(), space.dma_points().len());
        let dma = sweep(&trace, &space, &soc, FULL);
        assert_eq!(dma.len(), space.dma_points().len());
        let cache = sweep(&trace, &space, &soc, MemKind::Cache);
        assert_eq!(cache.len(), space.cache_points().len());
        assert!(edp_optimal(&dma).is_some());
    }

    #[test]
    fn topology_axis_multiplies_the_space_and_changes_timing() {
        use aladdin_mem::Topology;
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick().with_topologies(vec![
            Topology::SharedBus,
            Topology::MeshNoc {
                cols: 2,
                rows: 2,
                hop_cycles: 8,
                link_bits: 32,
            },
        ]);
        let soc = SocConfig::default();
        let results = sweep(&trace, &space, &soc, FULL);
        let n = space.dma_points().len();
        assert_eq!(results.len(), n * 2);
        // Same design point under the two topologies: mesh hops add
        // latency, so at least one point must time differently (and the
        // result cache must have keyed them apart).
        let diff = (0..n)
            .filter(|&i| results[i].total_cycles != results[i + n].total_cycles)
            .count();
        assert!(diff > 0, "mesh and shared bus cannot be timing-identical");
    }

    #[test]
    fn sweep_results_align_with_points() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let results = sweep(&trace, &space, &soc, MemKind::Dma(DmaOptLevel::Baseline));
        for (p, r) in space.dma_points().iter().zip(&results) {
            assert_eq!(r.datapath.lanes, p.lanes);
            assert_eq!(r.datapath.partition, p.partition);
        }
    }

    /// Static pre-flight composes with the point-list entry: contradictory
    /// points are rejected with diagnostics and only the accepted ones are
    /// simulated — e.g. unconstructible cache geometries, which would
    /// panic in `CacheConfig::num_sets`.
    #[test]
    fn checked_sweep_prunes_contradictory_points_instead_of_panicking() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        // 3072 B / 32 B lines / 4 ways = 24 sets (not a power of two).
        let space = DesignSpace {
            cache_sizes: vec![2048, 3072],
            ..DesignSpace::quick()
        };
        let soc = SocConfig::default();
        let pre = preflight_cache(&space, &soc);
        assert!(!pre.rejected.is_empty());
        assert!(pre.rejected.iter().all(|r| r.report.has_code("L0211")));
        let specs: Vec<PointSpec> = pre
            .accepted
            .iter()
            .map(|(_, p)| PointSpec {
                kind: MemKind::Cache,
                dp: p.datapath(),
                soc: p.apply(&soc),
            })
            .collect();
        let (results, perf) = sweep_points(&trace, &specs, &SimHarness::default());
        assert_eq!(perf.points, pre.accepted.len() as u64);
        let points = space.cache_points_unfiltered();
        for (&(idx, _), result) in pre.accepted.iter().zip(&results) {
            assert_eq!(points[idx].size_bytes, 2048);
            assert!(result.as_ref().expect("accepted point runs").total_cycles > 0);
        }
    }

    #[test]
    fn checked_dma_sweep_matches_unchecked_on_a_clean_space() {
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let pre = preflight_dma(&space, &soc);
        assert!(pre.rejected.is_empty());
        let specs: Vec<PointSpec> = pre
            .accepted
            .iter()
            .map(|(_, p)| PointSpec {
                kind: FULL,
                dp: p.datapath(),
                soc,
            })
            .collect();
        let (checked, _) = sweep_points(&trace, &specs, &SimHarness::default());
        let plain = sweep(&trace, &space, &soc, FULL);
        assert_eq!(plain.len(), checked.len());
        for (a, b) in plain.iter().zip(&checked) {
            assert_eq!(a, b.as_ref().expect("clean point"));
        }
    }

    #[test]
    fn parallel_map_is_deterministic() {
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let a: Vec<u64> = sweep(&trace, &space, &soc, FULL)
            .iter()
            .map(|r| r.total_cycles)
            .collect();
        let b: Vec<u64> = sweep(&trace, &space, &soc, FULL)
            .iter()
            .map(|r| r.total_cycles)
            .collect();
        assert_eq!(a, b);
    }

    /// The acceptance bar for the whole fast path: for the quick space on
    /// two kernels, the sweep engine (prepared DDDG + workspace reuse +
    /// result cache, warm or cold) must be bit-identical — every field,
    /// including phases, energy, and all stats blocks — to running each
    /// point's plain `aladdin-core` flow sequentially.
    #[test]
    fn fast_path_is_bit_exact_against_sequential_flows() {
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        for kernel in ["aes-aes", "fft-transpose"] {
            let trace = by_name(kernel).expect("kernel").run().trace;

            let dma_ref: Vec<FlowResult> = space
                .dma_points()
                .iter()
                .map(|p| {
                    simulate(&trace, &p.datapath(), &soc, &FlowSpec::new(FULL)).expect("completes")
                })
                .collect();
            let cache_ref: Vec<FlowResult> = space
                .cache_points()
                .iter()
                .map(|p| {
                    simulate(
                        &trace,
                        &p.datapath(),
                        &p.apply(&soc),
                        &FlowSpec::new(MemKind::Cache),
                    )
                    .expect("completes")
                })
                .collect();

            // Cold-ish pass (may or may not hit depending on test order —
            // either way the results must match the reference)...
            let dma = sweep(&trace, &space, &soc, FULL);
            let cache = sweep(&trace, &space, &soc, MemKind::Cache);
            assert_eq!(dma, dma_ref, "{kernel}: dma sweep diverged");
            assert_eq!(cache, cache_ref, "{kernel}: cache sweep diverged");

            // ...and a guaranteed-warm pass, served from the result cache.
            let (dma_warm, perf) = sweep_perf(&trace, &space, &soc, FULL);
            assert_eq!(dma_warm, dma_ref, "{kernel}: warm dma sweep diverged");
            assert_eq!(
                perf.cache_hits,
                space.dma_points().len() as u64,
                "{kernel}: warm sweep should be all cache hits"
            );
            let cache_warm = sweep(&trace, &space, &soc, MemKind::Cache);
            assert_eq!(cache_warm, cache_ref, "{kernel}: warm cache sweep diverged");

            // The single-point entry runs the same step.
            let p = &space.dma_points()[0];
            assert_eq!(
                run_point_cached(&trace, &p.datapath(), &soc, FULL),
                dma_ref[0]
            );
        }
    }

    /// The on-disk tier survives an in-memory wipe (simulating a new
    /// process) bit-exactly, and never serves results across config or
    /// trace changes.
    #[test]
    fn disk_tier_round_trips_bit_exactly_across_memory_wipes() {
        let _guard = crate::cache::test_disk_lock();
        let dir = std::path::PathBuf::from("target/test-sweep-cache");
        let _ = std::fs::remove_dir_all(&dir);
        set_sweep_cache_dir(&dir);
        set_sweep_cache_mode(SweepCacheMode::Full);

        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        // A SoC no other test sweeps, so concurrently running tests cannot
        // have pre-warmed the in-memory tier for these keys.
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 17;
        let first = sweep(&trace, &space, &soc, MemKind::Cache);
        // Count cache files across the 256-way shard directories (two keys
        // landing in one shard must still count as two entries).
        let files = || {
            std::fs::read_dir(&dir)
                .map(|d| {
                    d.filter_map(Result::ok)
                        .map(|e| {
                            std::fs::read_dir(e.path())
                                .map(|s| s.filter_map(Result::ok).count())
                                .unwrap_or(1)
                        })
                        .sum::<usize>()
                })
                .unwrap_or(0)
        };
        assert!(
            files() >= space.cache_points().len(),
            "disk tier not written"
        );

        // New-process simulation: wipe the memory tier, sweep again. Every
        // point must come back from disk, bit-identical.
        reset_sweep_cache();
        let (second, perf) = sweep_perf(&trace, &space, &soc, MemKind::Cache);
        assert_eq!(first, second, "disk tier round-trip diverged");
        assert_eq!(perf.cache_hits, space.cache_points().len() as u64);

        // A changed SoC field is a different key: nothing is served stale.
        reset_sweep_cache();
        let before = files();
        let mut soc2 = soc;
        soc2.invoke_cycles += 1;
        let shifted = sweep(&trace, &space, &soc2, MemKind::Cache);
        assert!(files() > before, "changed config must re-simulate, not hit");
        assert_ne!(first, shifted);

        set_sweep_cache_mode(SweepCacheMode::Mem);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The graceful-degradation acceptance bar: a sweep with per-point
    /// failures completes, reports every failed point to the sink and in
    /// the roll-up, and keeps every slot addressable by point index.
    #[test]
    fn faulted_sweep_reports_failures_and_keeps_going() {
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let specs = specs_for(
            &DesignSpace::quick(),
            &SocConfig::default(),
            MemKind::Dma(DmaOptLevel::Baseline),
        );
        // A ceiling low enough that every point's compute phase trips it.
        let sunk = Mutex::new(0usize);
        let (results, perf) =
            sweep_points_streaming(&trace, &specs, &tight_watchdog(8), &|_, r| {
                if r.is_err() {
                    *sunk.lock().unwrap() += 1;
                }
            });
        assert_eq!(results.len(), specs.len());
        let failed: Vec<&SimError> = results.iter().filter_map(|r| r.as_ref().err()).collect();
        assert!(!failed.is_empty(), "the tiny ceiling must trip");
        assert_eq!(perf.failures, failed.len() as u64);
        assert_eq!(sunk.into_inner().unwrap(), failed.len());
        for e in failed {
            assert_eq!(e.code(), "L0233", "{e}");
        }
    }

    #[test]
    fn faulted_sweep_with_empty_plan_matches_the_clean_sweep() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let specs = specs_for(&space, &soc, FULL);
        let (out, perf) = sweep_points(&trace, &specs, &SimHarness::default());
        assert_eq!(perf.failures, 0);
        let got: Vec<FlowResult> = out.into_iter().map(Result::unwrap).collect();
        assert_eq!(
            got,
            sweep(&trace, &space, &soc, FULL),
            "empty plan must be invisible"
        );
    }

    /// Fault-injected results must never pollute (or be served from) the
    /// result cache: the cache key does not include the plan.
    #[test]
    fn faulted_sweeps_bypass_the_result_cache() {
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        // A SoC no other test sweeps, so the cache keys are ours alone.
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 29;
        let specs = specs_for(&space, &soc, FULL);
        let h = SimHarness::with_seed(11);
        let (faulted, perf) = sweep_points(&trace, &specs, &h);
        assert_eq!(perf.cache_hits, 0, "faulted sweeps must not read the cache");
        // A clean sweep afterwards matches sequential plain flows — the
        // faulted pass left nothing perturbed behind.
        let clean = sweep(&trace, &space, &soc, FULL);
        let sequential: Vec<FlowResult> = space
            .dma_points()
            .iter()
            .map(|p| {
                simulate(&trace, &p.datapath(), &soc, &FlowSpec::new(FULL)).expect("completes")
            })
            .collect();
        assert_eq!(clean, sequential, "faulted results leaked into the cache");
        // Same seed, same outcome — and still no cache interaction.
        let (again, perf) = sweep_points(&trace, &specs, &h);
        assert_eq!(perf.cache_hits, 0);
        assert_eq!(faulted, again);
    }

    /// A lazy source materializes its trace only on a result-cache miss,
    /// once for all workers: a cold sweep builds it once, a fully warm
    /// sweep builds neither the trace nor the graph, one cold point among
    /// warm ones builds it once more, and a faulted harness — which
    /// bypasses the cache — builds it and simulates every point.
    #[test]
    fn lazy_source_builds_its_trace_only_on_a_miss() {
        use aladdin_workloads::Kernel;
        let _guard = crate::cache::test_disk_lock();
        // An input seed no other test traces, so the cache keys are ours.
        let kernel = aladdin_workloads::Aes {
            blocks: 1,
            seed: 4099,
        };
        let builds = AtomicUsize::new(0);
        let build = || {
            builds.fetch_add(1, Ordering::SeqCst);
            kernel.run().trace
        };
        let source = SweepSource::Lazy {
            fingerprint: kernel.fingerprint(),
            build: &build,
        };
        let soc = SocConfig::default();
        let specs = specs_for(&DesignSpace::quick(), &soc, FULL);
        let n = specs.len() as u64;
        let clean = SimHarness::default();
        let pass = |specs: &[PointSpec], harness: &SimHarness| {
            let sweep = Sweep::new(source, specs, harness, false);
            let outcomes: Vec<FlowResult> = sweep
                .run(&|_, _| ControlFlow::Continue(()))
                .into_iter()
                .map(|o| o.expect("ran").into_result().expect("completes"))
                .collect();
            let built = (sweep.trace.get().is_some(), sweep.prep.get().is_some());
            (outcomes, built, sweep.finish(specs.len() as u64))
        };

        let (cold, built, perf) = pass(&specs, &clean);
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "one build for every worker"
        );
        assert_eq!((built, perf.cache_hits), ((true, true), 0));
        let (eager, _) = sweep_points(&kernel.run().trace, &specs, &clean);
        let eager: Vec<FlowResult> = eager.into_iter().map(|r| r.expect("completes")).collect();
        assert_eq!(
            cold, eager,
            "the lazy source simulates what the eager one does"
        );

        let (warm, built, perf) = pass(&specs, &clean);
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "a warm sweep builds nothing"
        );
        assert_eq!((built, perf.cache_hits), ((false, false), n));
        assert_eq!(warm, cold);

        let mut one_cold = specs.clone();
        one_cold.push(PointSpec {
            dp: DatapathConfig {
                lanes: 2,
                partition: 2,
                ..specs[0].dp
            },
            ..specs[0]
        });
        let (_, built, perf) = pass(&one_cold, &clean);
        assert_eq!(builds.load(Ordering::SeqCst), 2, "one miss, one build");
        assert_eq!((built, perf.cache_hits), ((true, true), n));

        let (_, built, perf) = pass(&specs, &SimHarness::with_seed(11));
        assert_eq!(builds.load(Ordering::SeqCst), 3);
        assert_eq!((built, perf.cache_hits), ((true, true), 0));
    }

    /// The cache gate is watchdog-aware in both directions: an inert
    /// harness (empty plan, default watchdog) rides the warm cache, while
    /// a tighter watchdog bypasses it even when every key is warm — a
    /// cached success must never mask a timeout the ceiling would have
    /// produced.
    #[test]
    fn restrictive_watchdog_bypasses_a_warm_cache() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        // A SoC no other test sweeps, so the cache keys are ours alone.
        let mut soc = SocConfig::default();
        soc.invoke_cycles += 41;
        let specs = specs_for(&space, &soc, FULL);
        let n = specs.len() as u64;

        // Warm every key, then prove an inert harness serves from cache.
        let _ = sweep(&trace, &space, &soc, FULL);
        let (inert, perf) = sweep_points(&trace, &specs, &SimHarness::default());
        assert_eq!(perf.cache_hits, n, "inert harness must ride the cache");
        assert!(inert.iter().all(Result::is_ok));

        // Same warm keys, tight ceiling: no hits, and the ceiling trips.
        let (tight, perf) = sweep_points(&trace, &specs, &tight_watchdog(8));
        assert_eq!(
            perf.cache_hits, 0,
            "a non-default watchdog must not read the cache"
        );
        assert!(
            tight.iter().any(Result::is_err),
            "warm cache must not mask watchdog timeouts"
        );
        // And the tight pass recorded nothing: the clean sweep still
        // completes every point from cache.
        let (clean, perf) = sweep_perf(&trace, &space, &soc, FULL);
        assert_eq!(perf.cache_hits, n);
        assert_eq!(clean.len(), specs.len());
    }

    /// The streaming engine feeds the sink exactly once per point and
    /// returns the same results as the non-streaming entry.
    #[test]
    fn streaming_sweep_sinks_every_point_once() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let specs = specs_for(&DesignSpace::quick(), &SocConfig::default(), FULL);
        let seen: Mutex<Vec<(usize, u64)>> = Mutex::new(Vec::new());
        let (results, _) =
            sweep_points_streaming(&trace, &specs, &SimHarness::default(), &|i, r| {
                let cycles = r.as_ref().map(|r| r.total_cycles).unwrap_or(0);
                seen.lock().unwrap().push((i, cycles));
            });
        let mut seen = seen.into_inner().unwrap();
        seen.sort_unstable();
        assert_eq!(seen.len(), specs.len(), "one sink call per point");
        for (slot, (i, cycles)) in seen.iter().enumerate() {
            assert_eq!(slot, *i, "every index sunk exactly once");
            assert_eq!(results[*i].as_ref().unwrap().total_cycles, *cycles);
        }
        // And the public non-streaming entry is the same engine.
        let (again, _) = sweep_points(&trace, &specs, &SimHarness::default());
        assert_eq!(results, again);
    }

    /// An `.atrc` source runs through the same engine: bit-identical to
    /// the in-memory source, streamed through the windowed scheduler, and
    /// never cached or pruned.
    #[test]
    fn atrc_source_streams_and_bypasses_the_cache() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let atrc = aladdin_ir::AtrcTrace::from_bytes(aladdin_ir::encode_trace(&trace))
            .expect("encoded trace decodes");
        let specs = specs_for(&DesignSpace::quick(), &SocConfig::default(), FULL);
        let (memory, _) = sweep_points(&trace, &specs, &SimHarness::default());
        let (outcomes, perf) = sweep_engine(
            TraceSource::Atrc(&atrc).into(),
            &specs,
            &SimHarness::default(),
            true,
            &|_, _| ControlFlow::Continue(()),
        );
        assert_eq!(perf.cache_hits, 0, "streamed points bypass the cache");
        assert_eq!(perf.pruned, 0, "streamed points are never pruned");
        assert_eq!(perf.streamed_points, specs.len() as u64);
        assert!(perf.peak_resident_nodes > 0);
        for (m, o) in memory.iter().zip(outcomes.iter().flatten()) {
            assert_eq!(m.as_ref().ok(), o.result(), "streamed result diverged");
        }
    }

    /// Quick-mode throughput smoke test: bounded sanity on the SweepPerf
    /// counters, deliberately not a flaky points/sec threshold.
    #[test]
    fn sweep_perf_counters_are_sane() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let space = DesignSpace::quick();
        let soc = SocConfig::default();
        let kind = MemKind::Dma(DmaOptLevel::Pipelined);
        let (_, first) = sweep_perf(&trace, &space, &soc, kind);
        let n = space.dma_points().len() as u64;
        assert_eq!(first.points, n);
        assert!(first.wall_ns > 0);
        assert!(first.points_per_sec() > 0.0);
        // Simulated points did scheduler work; cached points did none.
        if first.cache_hits < n {
            assert!(first.events > 0);
            assert!(first.stepped_cycles > 0);
        }
        // A second, warm sweep is all hits and does no scheduler work.
        let (_, warm) = sweep_perf(&trace, &space, &soc, kind);
        assert_eq!(warm.cache_hits, n);
        assert_eq!(warm.events, 0);
        // Both sweeps landed in the process-wide accumulator.
        let g = crate::global_perf();
        assert!(g.points >= first.points + warm.points);
    }

    /// Soundness acceptance bar: a pruned sweep yields the identical
    /// Pareto frontier to the unpruned sweep on several kernels. Pruning
    /// discards only points strictly dominated on both objectives by a
    /// finished result — points `pareto_frontier` would discard anyway —
    /// and every skipped point is accounted for in the outcome list and
    /// the perf roll-up.
    #[test]
    fn pruned_sweep_preserves_the_pareto_frontier() {
        let harness = SimHarness::default();
        for kernel in ["aes-aes", "fft-transpose", "stencil-stencil2d"] {
            let trace = by_name(kernel).expect("kernel").run().trace;
            // A SoC no other test sweeps, so the shared result cache is
            // cold for these keys and pruning has a chance to engage.
            let mut soc = SocConfig::default();
            soc.invoke_cycles += 23;
            let specs = specs_for(&DesignSpace::quick(), &soc, FULL);
            let (outcomes, perf) =
                sweep_engine((&trace).into(), &specs, &harness, true, &|_, _| {
                    ControlFlow::Continue(())
                });
            let outcomes: Vec<PointOutcome> = outcomes.into_iter().flatten().collect();
            let survivors: Vec<FlowResult> = outcomes
                .iter()
                .filter_map(|o| o.result().cloned())
                .collect();
            let pruned_n = outcomes
                .iter()
                .filter(|o| matches!(o, PointOutcome::Pruned(_)))
                .count() as u64;
            let failed_n = outcomes
                .iter()
                .filter(|o| matches!(o, PointOutcome::Failed(_)))
                .count() as u64;
            assert_eq!(perf.points, specs.len() as u64, "{kernel}");
            assert_eq!(perf.pruned, pruned_n, "{kernel}");
            assert_eq!(perf.failures, failed_n, "{kernel}");
            assert_eq!(
                survivors.len() as u64 + failed_n + pruned_n,
                perf.points,
                "{kernel}: every point must be accounted for"
            );
            assert!(perf.cache_hits <= survivors.len() as u64, "{kernel}");
            // The unpruned reference. (The cache is now warm for the
            // survivors; any pruned point is simulated here for the
            // first time.)
            let (full, _) = sweep_points(&trace, &specs, &harness);
            let full: Vec<FlowResult> = full
                .into_iter()
                .map(|r| r.expect("clean sweep point"))
                .collect();
            let frontier = |rs: &[FlowResult]| -> Vec<FlowResult> {
                pareto_frontier(rs)
                    .into_iter()
                    .map(|i| rs[i].clone())
                    .collect()
            };
            assert_eq!(
                frontier(&full),
                frontier(&survivors),
                "{kernel}: pruning changed the Pareto frontier"
            );
        }
    }

    /// With a dominating witness already cached, the pruned engine
    /// actually skips a hopeless point: one spec is fast and frugal
    /// (cached up front, so it becomes a witness immediately), the other
    /// pairs a single lane with a huge single-ported cache, so its
    /// certified cycle lower bound and leakage power floor are both
    /// strictly worse than the witness's *finished* result.
    #[test]
    fn pruning_skips_a_statically_dominated_point() {
        let trace = by_name("aes-aes").expect("kernel").run().trace;
        let harness = SimHarness::default();
        let mut fast = PointSpec {
            kind: MemKind::Cache,
            dp: DatapathConfig {
                lanes: 8,
                ..DatapathConfig::default()
            },
            soc: SocConfig::default(),
        };
        fast.soc.invoke_cycles += 29; // keys distinct from every other test
        fast.soc.cache.size_bytes = 1024;
        let mut slow = fast;
        slow.dp.lanes = 1;
        slow.soc.cache.size_bytes = 1 << 20;
        slow.soc.cache.ports = 1;
        slow.soc.cache.hit_latency = 4;

        // Warm the cache with the witness so the pruned sweep's first
        // point is a hit and its (cycles, power) are available before the
        // slow point's bounds check finishes building its DDDG.
        let witness = run_point_cached(&trace, &fast.dp, &fast.soc, fast.kind);

        let mut fired = None;
        for attempt in 0..10u32 {
            // Pruning is opportunistic (completion-order dependent); give
            // each retry a fresh cache key for the slow point so a lost
            // race doesn't turn later attempts into cache hits.
            let mut slow = slow;
            slow.soc.invoke_cycles += u64::from(attempt);
            let specs = [fast, slow];
            let (outcomes, perf) =
                sweep_engine((&trace).into(), &specs, &harness, true, &|_, _| {
                    ControlFlow::Continue(())
                });
            assert!(
                matches!(&outcomes[0], Some(PointOutcome::Done(r)) if **r == witness),
                "witness must be served from cache, bit-exact"
            );
            if let Some(PointOutcome::Pruned(p)) = &outcomes[1] {
                assert_eq!(perf.pruned, 1);
                fired = Some(*p);
                break;
            }
        }
        let p = fired.expect("dominated point should be pruned with a cached witness");
        assert_eq!(p.index, 1);
        assert_eq!(p.by_cycles, witness.total_cycles);
        assert!(p.by_cycles < p.lo, "witness strictly faster than the bound");
        assert!(
            p.by_power_mw < p.power_floor_mw,
            "witness strictly under the power floor"
        );
    }

    /// Faulted sweeps never prune (perturbed results are the point), and
    /// their outcome categories still sum to the expanded point count.
    #[test]
    fn faulted_sweeps_do_not_prune_and_still_sum() {
        let trace = by_name("fft-transpose").expect("kernel").run().trace;
        let specs = specs_for(&DesignSpace::quick(), &SocConfig::default(), FULL);
        let (outcomes, perf) = sweep_engine(
            (&trace).into(),
            &specs,
            &tight_watchdog(50),
            true,
            &|_, _| ControlFlow::Continue(()),
        );
        assert!(!outcomes
            .iter()
            .flatten()
            .any(|o| matches!(o, PointOutcome::Pruned(_))));
        assert_eq!(perf.pruned, 0);
        let ok = outcomes
            .iter()
            .flatten()
            .filter(|o| o.result().is_some())
            .count() as u64;
        assert_eq!(perf.cache_hits, 0, "harnessed sweeps bypass the cache");
        assert_eq!(
            ok + perf.failures + perf.pruned,
            perf.points,
            "outcome categories must sum to the expanded point count"
        );
    }
}
