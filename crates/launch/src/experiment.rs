//! Executing an [`ExperimentMatrix`]: memoized profiling, the one
//! cold-cell executor, and the [`SweepReport`] renderers.
//!
//! [`ExperimentMatrix::run_cells`] is the executor both front ends call —
//! [`ExperimentMatrix::run`] with every cell, `depchaos-serve` with the
//! store's misses. Given `(scenario, rank point)` cells it runs three
//! phases:
//!
//! 1. **Profile** — every unique [`CellKey`] (workload × backend × storage)
//!    is realised exactly once: build a fresh [`Vfs`] on the cell's storage
//!    backend, install the workload, capture the plain op stream, wrap
//!    through the cell's backend, capture the wrapped op stream. Both logs
//!    land in a shared, memoized [`ProfileCache`], so scenarios differing
//!    only in wrap state, cache policy, or rank points reuse one profile.
//!    Profiling runs on `jobs` scoped threads pulling cells off one atomic
//!    cursor (`jobs <= 1` runs inline), each cell behind its own
//!    `catch_unwind`, so a panicking workload fails only its own cells.
//! 2. **Classify** — every scenario derives its config once
//!    ([`Scenario::launch_config`]) and classifies its stream through the
//!    cache.
//! 3. **Simulate** — every cell's replicates run through
//!    [`run_adaptive_units`], sequentially, one [`BatchPlan`](crate::BatchPlan)
//!    per round. Fixed-K replication is the stopping rule switched off
//!    ([`AdaptiveControl::fixed`]): one round, one plan. Each cell is then
//!    summarised into a [`CellAnswer`] and [`ScenarioResult::assemble`]
//!    builds the report rows.
//!
//! A backend that cannot resolve the workload is data, not a crash: the
//! cell records the unresolved count or wrap error and the report renders
//! the hole (that the future loader cannot see a RUNPATH-only world *is*
//! the §IV story).

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use depchaos_core::{wrap, ShrinkwrapOptions};
use depchaos_loader::LdCache;
use depchaos_vfs::{StraceLog, Vfs};
use depchaos_workloads::{SplitMix, Workload};

use crate::adaptive::{run_adaptive_units, AdaptiveControl, AdaptiveUnit};
use crate::config::{LaunchConfig, LaunchResult, ServerTopology, ServiceDistribution};
use crate::des::{ClassifiedStream, ClassifyParams};
use crate::fault::FaultModel;
use crate::matrix::{
    CachePolicy, CellKey, ExperimentMatrix, MatrixBackend, Scenario, ScenarioSpec, WrapState,
};
use crate::profile::profile_load_checked;
use crate::queueing::{mg1_bounds, validate_against_mg1, QueueingCheck};
use crate::sweep::{render_fig6, LaunchStats};

/// The RNG seed one scenario simulates under: a stable FNV-1a digest of the
/// scenario label, taken through the [`SplitMix::WORKLOAD`] stream domain of
/// the experiment's base seed. Every cell of the matrix is therefore
/// reproducible from `(base seed, cell label)` alone — re-running a single
/// scenario standalone draws exactly what the full sweep drew — while
/// distinct cells get decorrelated streams that cannot collide with the
/// replicate ([`SplitMix::REPLICATE`]) or per-node ([`SplitMix::NODE`])
/// domains derived from them.
pub fn scenario_seed(base_seed: u64, label: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in label.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix::split(base_seed, SplitMix::WORKLOAD, h).next_u64()
}

/// One captured op stream plus how the load went.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProfileOutcome {
    pub log: StraceLog,
    /// stat+openat count of the stream (the Table II metric).
    pub stat_openat: usize,
    /// Failed lookups in the stream.
    pub misses: usize,
    /// Did every dependency resolve? A load can run to completion with
    /// holes (future loader on a RUNPATH world, musl on a stripped image).
    pub complete: bool,
    /// Unresolved dependency count when `!complete`.
    pub unresolved: usize,
}

/// Everything one profiling run of a cell produced.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CellProfile {
    pub key: CellKey,
    /// The as-built op stream, or the error that prevented capturing it.
    pub plain: Result<ProfileOutcome, String>,
    /// The post-Shrinkwrap op stream; `Err` when the wrap itself failed
    /// under this cell's backend semantics.
    pub wrapped: Result<ProfileOutcome, String>,
}

impl CellProfile {
    /// The outcome for one wrap state.
    pub fn outcome(&self, wrap: WrapState) -> &Result<ProfileOutcome, String> {
        match wrap {
            WrapState::Plain => &self.plain,
            WrapState::Wrapped => &self.wrapped,
        }
    }
}

/// The shared, memoized profile store. Cells are keyed by
/// (workload, backend, storage); asking twice for the same key performs
/// one profiling run and hands back the same [`Arc`]. Sharing one cache
/// across matrices (report sections, benches, tests) extends the
/// memoization across them.
#[derive(Default)]
pub struct ProfileCache {
    cells: Mutex<HashMap<CellKey, Arc<CellProfile>>>,
    computed: Mutex<usize>,
    /// Classified streams, memoized per (cell, wrap state, latency
    /// calibration): every scenario and rank point that shares those three
    /// shares one classification — cache policy and rank counts do not
    /// invalidate it.
    classified: Mutex<HashMap<(CellKey, WrapState, ClassifyParams), Arc<ClassifiedStream>>>,
    classified_computed: Mutex<usize>,
}

impl ProfileCache {
    pub fn new() -> Self {
        Self::default()
    }

    /// How many profiling runs actually executed (cache misses) — the
    /// exactly-once accounting the matrix tests assert on.
    pub fn computed(&self) -> usize {
        *self.computed.lock()
    }

    /// How many stream classifications actually executed; bounded by
    /// (cells × wrap states × distinct latency calibrations), never by
    /// scenarios or rank points.
    pub fn classified_computed(&self) -> usize {
        *self.classified_computed.lock()
    }

    /// Fetch or compute the [`ClassifiedStream`] for one wrap state of a
    /// cell under `cfg`'s latency calibration.
    pub fn classified(
        &self,
        key: &CellKey,
        wrap: WrapState,
        log: &StraceLog,
        cfg: &LaunchConfig,
    ) -> Arc<ClassifiedStream> {
        let k = (key.clone(), wrap, ClassifyParams::of(cfg));
        if let Some(hit) = self.classified.lock().get(&k) {
            return Arc::clone(hit);
        }
        let stream = Arc::new(ClassifiedStream::classify(log, cfg));
        let mut map = self.classified.lock();
        if let Some(existing) = map.get(&k) {
            return Arc::clone(existing);
        }
        map.insert(k, Arc::clone(&stream));
        *self.classified_computed.lock() += 1;
        stream
    }

    /// A cell already in the cache, if any.
    pub fn get(&self, key: &CellKey) -> Option<Arc<CellProfile>> {
        self.cells.lock().get(key).cloned()
    }

    /// Fetch or produce the profile cell for (workload, backend, storage).
    pub fn get_or_profile(
        &self,
        workload: &dyn Workload,
        backend: &MatrixBackend,
        storage: depchaos_vfs::StorageModel,
    ) -> Arc<CellProfile> {
        self.get_or_profile_counted(workload, backend, storage).0
    }

    /// [`ProfileCache::get_or_profile`], also reporting whether *this call*
    /// performed the profiling run — the per-run accounting behind
    /// [`SweepReport::cells_profiled`], which must not miscount when the
    /// cache is shared by concurrently running matrices.
    pub fn get_or_profile_counted(
        &self,
        workload: &dyn Workload,
        backend: &MatrixBackend,
        storage: depchaos_vfs::StorageModel,
    ) -> (Arc<CellProfile>, bool) {
        let key = CellKey {
            workload: workload.name().to_string(),
            backend: backend.name().to_string(),
            storage,
        };
        if let Some(hit) = self.get(&key) {
            return (hit, false);
        }
        let profile = Arc::new(profile_cell(key.clone(), workload, backend, storage));
        let mut cells = self.cells.lock();
        // Under a parallel fill two threads can race to the same key; the
        // first insert wins and counts, the loser adopts it.
        if let Some(existing) = cells.get(&key) {
            return (Arc::clone(existing), false);
        }
        cells.insert(key, Arc::clone(&profile));
        *self.computed.lock() += 1;
        (profile, true)
    }
}

/// One profiling run: world build, plain capture, wrap, wrapped capture.
fn profile_cell(
    key: CellKey,
    workload: &dyn Workload,
    backend: &MatrixBackend,
    storage: depchaos_vfs::StorageModel,
) -> CellProfile {
    let fs = Vfs::new(storage.backend());
    let installed = match workload.install(&fs) {
        Ok(i) => i,
        Err(e) => {
            let msg = format!("install failed: {e}");
            return CellProfile { key, plain: Err(msg.clone()), wrapped: Err(msg) };
        }
    };
    let env = workload.environment();
    let loader_backend = match backend.backend_for(&fs, &installed) {
        Ok(b) => b,
        Err(e) => {
            let msg = format!("backend index failed: {e}");
            return CellProfile { key, plain: Err(msg.clone()), wrapped: Err(msg) };
        }
    };
    let capture = |label: &str| -> Result<ProfileOutcome, String> {
        let loader = loader_backend.instantiate(&fs, &env, &LdCache::empty());
        profile_load_checked(&fs, &installed.exe_path, loader.as_ref())
            .map(|(log, r)| ProfileOutcome {
                stat_openat: log.stat_openat(),
                misses: log.misses(),
                complete: r.success(),
                unresolved: r.failures.len(),
                log,
            })
            .map_err(|e| format!("{label} load failed: {e}"))
    };

    let plain = capture("plain");
    let wrapped = match wrap(
        &fs,
        &installed.exe_path,
        &ShrinkwrapOptions::new().env(env.clone()).backend(loader_backend.clone()),
    ) {
        Ok(_) => capture("wrapped"),
        Err(e) => Err(format!("wrap failed: {e}")),
    };
    CellProfile { key, plain, wrapped }
}

/// The per-scenario profile summary every cell of that scenario carries
/// (duplicating a few integers per rank point buys cell independence: any
/// subset of a scenario's cells is enough to report that subset). All
/// zeros for a cell without a usable op stream.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProfileSummary {
    pub stat_openat: usize,
    pub misses: usize,
    pub complete: bool,
    pub unresolved: usize,
}

impl From<&ProfileOutcome> for ProfileSummary {
    fn from(p: &ProfileOutcome) -> ProfileSummary {
        ProfileSummary {
            stat_openat: p.stat_openat,
            misses: p.misses,
            complete: p.complete,
            unresolved: p.unresolved,
        }
    }
}

/// The simulated payload of a cell that has one (profile errors don't):
/// replicate 0's full result, the replicate statistics, and the M/G/k
/// verdict on their mean.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellOutcome {
    pub result: LaunchResult,
    pub stats: LaunchStats,
    pub queueing: QueueingCheck,
}

/// One `(scenario, rank point)` cell as [`ExperimentMatrix::run_cells`]
/// answers it — the unit [`ScenarioResult::assemble`] builds report rows
/// from, and what `depchaos-serve` persists per store record.
#[derive(Debug, Clone, PartialEq)]
pub struct CellAnswer {
    pub ranks: usize,
    pub profile: ProfileSummary,
    /// Why the cell has no outcome, when it doesn't.
    pub error: Option<String>,
    pub outcome: Option<CellOutcome>,
    /// The error is a caught profiling panic: a crash is reported, but it
    /// is not a reproducible result and must never be persisted.
    pub panicked: bool,
}

/// What one [`ExperimentMatrix::run_cells`] call produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRun {
    /// One answer per requested cell, in request order.
    pub answers: Vec<CellAnswer>,
    /// Profiling runs this call performed (cache misses).
    pub cells_profiled: usize,
    /// Worker threads the profiling pool used.
    pub workers: usize,
}

/// One scenario's sweep: its identity, a per-rank profile summary, the
/// simulated series (empty when the cell has no usable op stream), and —
/// per rank point — the replicate statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioResult {
    pub spec: ScenarioSpec,
    pub stat_openat: usize,
    pub misses: usize,
    pub complete: bool,
    /// Unresolved dependency count when `!complete`.
    pub unresolved: usize,
    /// Why there is no series, when there isn't.
    pub error: Option<String>,
    /// Replicate 0's full results, one per rank point.
    pub series: Vec<(usize, LaunchResult)>,
    /// p50/p95/p99/mean over the scenario's seeded replicates, one per rank
    /// point (replicate count 1 for deterministic scenarios).
    pub stats: Vec<(usize, LaunchStats)>,
    /// The M/G/1 envelope verdict per rank point
    /// ([`crate::queueing::validate_against_mg1`]): does the replicate mean
    /// sit inside what queueing theory allows for this cell?
    pub queueing: Vec<(usize, QueueingCheck)>,
}

impl ScenarioResult {
    /// Build one scenario's result from its cells in rank-point order: the
    /// profile summary of the first cell, the first error if any cell has
    /// one (and then no series), otherwise every cell's outcome.
    pub fn assemble<'a>(
        spec: ScenarioSpec,
        cells: impl IntoIterator<Item = &'a CellAnswer>,
    ) -> ScenarioResult {
        let mut cells = cells.into_iter().peekable();
        let profile = cells.peek().map(|c| c.profile).unwrap_or_default();
        let mut r = ScenarioResult {
            spec,
            stat_openat: profile.stat_openat,
            misses: profile.misses,
            complete: profile.complete,
            unresolved: profile.unresolved,
            error: None,
            series: Vec::new(),
            stats: Vec::new(),
            queueing: Vec::new(),
        };
        for c in cells {
            if let Some(e) = &c.error {
                r.error.get_or_insert_with(|| e.clone());
            } else if let Some(o) = &c.outcome {
                r.series.push((c.ranks, o.result));
                r.stats.push((c.ranks, o.stats));
                r.queueing.push((c.ranks, o.queueing));
            }
        }
        if r.error.is_some() {
            r.series.clear();
            r.stats.clear();
            r.queueing.clear();
        }
        r
    }

    /// The simulated launch at `ranks`, when swept.
    pub fn result_at(&self, ranks: usize) -> Option<&LaunchResult> {
        self.series.iter().find(|(r, _)| *r == ranks).map(|(_, l)| l)
    }

    /// Launch seconds at `ranks`, when simulated.
    pub fn seconds_at(&self, ranks: usize) -> Option<f64> {
        self.result_at(ranks).map(LaunchResult::seconds)
    }

    /// Replicate statistics at `ranks`, when swept.
    pub fn stats_at(&self, ranks: usize) -> Option<&LaunchStats> {
        self.stats.iter().find(|(r, _)| *r == ranks).map(|(_, s)| s)
    }

    /// The queueing verdict at `ranks`, when swept.
    pub fn queueing_at(&self, ranks: usize) -> Option<&QueueingCheck> {
        self.queueing.iter().find(|(r, _)| *r == ranks).map(|(_, q)| q)
    }
}

/// Everything an [`ExperimentMatrix::run`] produced, serializable, with
/// the Fig 6 table and TSV renderers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    pub rank_points: Vec<usize>,
    pub results: Vec<ScenarioResult>,
    /// Profiling runs this matrix triggered (cache misses); always ≤ the
    /// number of unique cells across its scenarios.
    pub cells_profiled: usize,
    /// The sequential stopping rule the sweep ran under, when adaptive
    /// replicate control was requested — `None` for fixed-K sweeps. Each
    /// cell's stopped-at K is in its [`LaunchStats::replicates`]. Serde
    /// default keeps reports written before the rule existed loadable.
    #[serde(default)]
    pub adaptive: Option<AdaptiveControl>,
}

impl SweepReport {
    /// Results matching a predicate over specs.
    pub fn find(&self, pred: impl Fn(&ScenarioSpec) -> bool) -> Vec<&ScenarioResult> {
        self.results.iter().filter(|r| pred(&r.spec)).collect()
    }

    /// The one result with exactly this spec.
    pub fn get(&self, spec: &ScenarioSpec) -> Option<&ScenarioResult> {
        self.results.iter().find(|r| &r.spec == spec)
    }

    /// The single result for `(wrap, cache)` — the common pick when the
    /// matrix covers one (workload, backend, storage) slice, as the Fig 6
    /// drivers do. `None` when absent *or* ambiguous.
    pub fn one(&self, wrap: WrapState, cache: CachePolicy) -> Option<&ScenarioResult> {
        let mut it = self.results.iter().filter(|r| r.spec.wrap == wrap && r.spec.cache == cache);
        let first = it.next()?;
        if it.next().is_some() {
            return None;
        }
        Some(first)
    }

    /// Per-backend Fig 6 tables: for every (workload, storage, cache,
    /// backend) slice that has both wrap states, the normal-vs-wrapped
    /// table; slices missing a series render their error instead.
    pub fn render_fig6_tables(&self) -> String {
        // One pass to index results by spec, so slice assembly below stays
        // linear in the matrix size.
        let by_spec: HashMap<&ScenarioSpec, &ScenarioResult> =
            self.results.iter().map(|r| (&r.spec, r)).collect();
        let mut out = String::new();
        let mut seen: HashSet<ScenarioSpec> = HashSet::new();
        for r in &self.results {
            let slice_key = ScenarioSpec { wrap: WrapState::Plain, ..r.spec.clone() };
            if !seen.insert(slice_key) {
                continue;
            }
            let of_wrap =
                |w: WrapState| by_spec.get(&ScenarioSpec { wrap: w, ..r.spec.clone() }).copied();
            let plain = of_wrap(WrapState::Plain);
            let wrapped = of_wrap(WrapState::Wrapped);
            out.push_str(&format!(
                "--- {} × {} ({}, {} cache) ---\n",
                r.spec.workload,
                r.spec.backend,
                r.spec.storage.name(),
                r.spec.cache.name()
            ));
            for (state, res) in [("plain", plain), ("wrapped", wrapped)] {
                if let Some(res) = res {
                    if let Some(e) = &res.error {
                        out.push_str(&format!("{state}: no series — {e}\n"));
                    } else if !res.complete {
                        out.push_str(&format!(
                            "{state}: {} stat/openat, INCOMPLETE ({} unresolved)\n",
                            res.stat_openat, res.unresolved
                        ));
                    } else {
                        out.push_str(&format!(
                            "{state}: {} stat/openat ({} misses)\n",
                            res.stat_openat, res.misses
                        ));
                    }
                }
            }
            let series =
                |r: Option<&ScenarioResult>| r.map(|r| r.series.clone()).unwrap_or_default();
            out.push_str(&render_fig6(&self.rank_points, &series(plain), &series(wrapped)));
            out.push('\n');
        }
        out
    }

    /// The whole sweep as TSV — one row per (scenario, rank point), the raw
    /// data behind every per-backend and per-distribution figure. The
    /// percentile columns repeat the point estimate when the scenario is
    /// deterministic (replicates = 1). The trailing `stopping` column is
    /// the stopping summary: `fixed@K` for fixed-K sweeps, or
    /// `adaptive-<target>m@K` with the K the sequential rule actually used
    /// for that cell (the same K the `replicates` column counts).
    pub fn render_tsv(&self) -> String {
        let mut s = String::from(
            "workload\tbackend\tstorage\twrap\tcache\tdist\tfault\ttopology\tranks\tseconds\tp50_s\tp95_s\tp99_s\treplicates\tserver_ops\tpeak_queue\tretries\tstopping\n",
        );
        for r in &self.results {
            for (ranks, l) in &r.series {
                let st = r.stats_at(*ranks).copied().unwrap_or(LaunchStats {
                    replicates: 1,
                    mean_ns: l.time_to_launch_ns,
                    p50_ns: l.time_to_launch_ns,
                    p95_ns: l.time_to_launch_ns,
                    p99_ns: l.time_to_launch_ns,
                });
                let stopping = match &self.adaptive {
                    None => format!("fixed@{}", st.replicates),
                    Some(c) => format!("adaptive-{}m@{}", c.target_rel_milli, st.replicates),
                };
                s.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{ranks}\t{:.3}\t{:.3}\t{:.3}\t{:.3}\t{}\t{}\t{}\t{}\t{stopping}\n",
                    r.spec.workload,
                    r.spec.backend,
                    r.spec.storage.name(),
                    r.spec.wrap.name(),
                    r.spec.cache.name(),
                    r.spec.dist.name(),
                    r.spec.fault.name(),
                    r.spec.topology.name(),
                    l.seconds(),
                    st.p50_s(),
                    st.p95_s(),
                    st.p99_s(),
                    st.replicates,
                    l.server_ops,
                    l.peak_queue_depth,
                    l.retries_issued
                ));
            }
        }
        s
    }

    /// Per-distribution Fig 6 tables: for every (workload, backend,
    /// storage, cache, wrap) slice, one table with the deterministic curve
    /// next to each stochastic distribution's p50/p99 band — the `fig6-dist`
    /// section. Slices without a series render their error instead.
    pub fn render_fig6_dist_tables(&self) -> String {
        let mut out = String::new();
        let mut seen: HashSet<ScenarioSpec> = HashSet::new();
        for r in &self.results {
            let slice = ScenarioSpec { dist: ServiceDistribution::Deterministic, ..r.spec.clone() };
            if !seen.insert(slice.clone()) {
                continue;
            }
            // All distributions of this slice, deterministic first, then in
            // result order (which follows the matrix's distribution axis).
            let mut members: Vec<&ScenarioResult> = self
                .results
                .iter()
                .filter(|x| {
                    ScenarioSpec { dist: ServiceDistribution::Deterministic, ..x.spec.clone() }
                        == slice
                })
                .collect();
            members.sort_by_key(|x| !x.spec.dist.is_deterministic());
            out.push_str(&format!(
                "--- {} × {} ({}, {} cache, {}) ---\n",
                slice.workload,
                slice.backend,
                slice.storage.name(),
                slice.cache.name(),
                slice.wrap.name()
            ));
            if let Some(e) = members.iter().find_map(|m| m.error.as_deref()) {
                out.push_str(&format!("no series — {e}\n\n"));
                continue;
            }
            let mut header = String::from("ranks");
            for m in &members {
                if m.spec.dist.is_deterministic() {
                    header.push_str(&format!("  {:>10}", "det(s)"));
                } else {
                    header.push_str(&format!(
                        "  {:>22}",
                        format!("{} p50/p99(s)", m.spec.dist.name())
                    ));
                }
            }
            out.push_str(&header);
            out.push('\n');
            for &p in &self.rank_points {
                let mut row = format!("{p:>5}");
                for m in &members {
                    match (m.spec.dist.is_deterministic(), m.seconds_at(p), m.stats_at(p)) {
                        (true, Some(secs), _) => row.push_str(&format!("  {secs:>10.1}")),
                        (false, _, Some(st)) => row.push_str(&format!(
                            "  {:>22}",
                            format!("{:.1}/{:.1}", st.p50_s(), st.p99_s())
                        )),
                        (true, None, _) => row.push_str(&format!("  {:>10}", "-")),
                        (false, _, None) => row.push_str(&format!("  {:>22}", "-")),
                    }
                }
                out.push_str(&row);
                out.push('\n');
            }
            out.push('\n');
        }
        out
    }

    /// Per-fault degraded-mode tables — the `fig6-faults` section. For
    /// every (workload, backend, storage, wrap, cache, dist) slice swept
    /// across the fault axis, one table with a row per fault model: the
    /// launch seconds at each rank point, the slowdown over the healthy
    /// row at the largest point, and the fault accounting (retries,
    /// timeouts, straggler membership) from replicate 0 at that point.
    pub fn render_fault_tables(&self) -> String {
        let mut out = String::new();
        let mut seen: HashSet<ScenarioSpec> = HashSet::new();
        let last = self.rank_points.last().copied();
        for r in &self.results {
            let slice = ScenarioSpec { fault: FaultModel::None, ..r.spec.clone() };
            if !seen.insert(slice.clone()) {
                continue;
            }
            // All fault models of this slice, healthy first, then in
            // result order (which follows the matrix's fault axis).
            let mut members: Vec<&ScenarioResult> = self
                .results
                .iter()
                .filter(|x| ScenarioSpec { fault: FaultModel::None, ..x.spec.clone() } == slice)
                .collect();
            members.sort_by_key(|x| !x.spec.fault.is_none());
            out.push_str(&format!(
                "--- {} × {} ({}, {} cache, {}, {}) ---\n",
                slice.workload,
                slice.backend,
                slice.storage.name(),
                slice.cache.name(),
                slice.wrap.name(),
                slice.dist.name()
            ));
            if let Some(e) = members.iter().find_map(|m| m.error.as_deref()) {
                out.push_str(&format!("no series — {e}\n\n"));
                continue;
            }
            let healthy_at = |p: usize| {
                members.iter().find(|m| m.spec.fault.is_none()).and_then(|m| m.seconds_at(p))
            };
            let mut header = format!("{:<42}", "fault");
            for &p in &self.rank_points {
                header.push_str(&format!("  {:>10}", format!("{p}(s)")));
            }
            header.push_str(&format!(
                "  {:>9}  {:>9} {:>9} {:>7}\n",
                "slowdown", "retries", "timeouts", "slowed"
            ));
            out.push_str(&header);
            for m in &members {
                let name = if m.spec.fault.is_none() {
                    "healthy".to_string()
                } else {
                    m.spec.fault.name()
                };
                let mut row = format!("{name:<42}");
                for &p in &self.rank_points {
                    match m.seconds_at(p) {
                        Some(secs) => row.push_str(&format!("  {secs:>10.1}")),
                        None => row.push_str(&format!("  {:>10}", "-")),
                    }
                }
                let slowdown = last
                    .and_then(|p| Some(m.seconds_at(p)? / healthy_at(p)?))
                    .map(|x| format!("{x:>8.2}x"))
                    .unwrap_or_else(|| format!("{:>9}", "-"));
                let acct = last.and_then(|p| m.result_at(p));
                row.push_str(&format!(
                    "  {slowdown}  {:>9} {:>9} {:>7}\n",
                    acct.map(|l| l.retries_issued).unwrap_or(0),
                    acct.map(|l| l.timeouts_hit).unwrap_or(0),
                    acct.map(|l| l.slowed_nodes).unwrap_or(0)
                ));
                out.push_str(&row);
            }
            out.push('\n');
        }
        out
    }

    /// Per-topology fleet tables — the `fig6-servers` section. For every
    /// (workload, backend, storage, wrap, cache, dist, fault) slice swept
    /// across the server-topology axis, one table with a row per fleet:
    /// the launch seconds at each rank point and the speedup over the
    /// single-server row at the largest point — plus the *flattening
    /// point*, the smallest fleet within 5% of the best launch at the
    /// largest rank point (past it, more metadata servers buy nothing,
    /// because the launch has gone RTT- or client-bound).
    pub fn render_servers_tables(&self) -> String {
        let display = |t: &ServerTopology| {
            if t.is_single() {
                "1-server".to_string()
            } else {
                t.name()
            }
        };
        let mut out = String::new();
        let mut seen: HashSet<ScenarioSpec> = HashSet::new();
        let last = self.rank_points.last().copied();
        for r in &self.results {
            let slice = ScenarioSpec { topology: ServerTopology::single(), ..r.spec.clone() };
            if !seen.insert(slice.clone()) {
                continue;
            }
            // All fleets of this slice, smallest first, hash before
            // least-loaded at equal size.
            let mut members: Vec<&ScenarioResult> = self
                .results
                .iter()
                .filter(|x| {
                    ScenarioSpec { topology: ServerTopology::single(), ..x.spec.clone() } == slice
                })
                .collect();
            members.sort_by_key(|x| (x.spec.topology.servers, x.spec.topology.assign.name()));
            out.push_str(&format!(
                "--- {} × {} ({}, {} cache, {}, {}) ---\n",
                slice.workload,
                slice.backend,
                slice.storage.name(),
                slice.cache.name(),
                slice.wrap.name(),
                slice.dist.name()
            ));
            if let Some(e) = members.iter().find_map(|m| m.error.as_deref()) {
                out.push_str(&format!("no series — {e}\n\n"));
                continue;
            }
            let single_at = |p: usize| {
                members.iter().find(|m| m.spec.topology.is_single()).and_then(|m| m.seconds_at(p))
            };
            let mut header = format!("{:<18}", "topology");
            for &p in &self.rank_points {
                header.push_str(&format!("  {:>10}", format!("{p}(s)")));
            }
            header.push_str(&format!("  {:>9}\n", "speedup"));
            out.push_str(&header);
            for m in &members {
                let mut row = format!("{:<18}", display(&m.spec.topology));
                for &p in &self.rank_points {
                    match m.seconds_at(p) {
                        Some(secs) => row.push_str(&format!("  {secs:>10.1}")),
                        None => row.push_str(&format!("  {:>10}", "-")),
                    }
                }
                let speedup = last
                    .and_then(|p| Some(single_at(p)? / m.seconds_at(p)?))
                    .map(|x| format!("{x:>8.2}x"))
                    .unwrap_or_else(|| format!("{:>9}", "-"));
                row.push_str(&format!("  {speedup}\n"));
                out.push_str(&row);
            }
            if let Some(p) = last {
                let best =
                    members.iter().filter_map(|m| m.seconds_at(p)).fold(f64::INFINITY, f64::min);
                if best.is_finite() {
                    if let Some(flat) =
                        members.iter().find(|m| m.seconds_at(p).is_some_and(|s| s <= best * 1.05))
                    {
                        out.push_str(&format!(
                            "flattens at {} ({p} ranks, within 5% of best)\n",
                            display(&flat.spec.topology)
                        ));
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Every `(scenario label, ranks)` whose replicate mean escaped the
    /// M/G/1 envelope — empty means the whole sweep is consistent with
    /// queueing theory.
    pub fn queueing_violations(&self) -> Vec<(String, usize)> {
        let mut out = Vec::new();
        for r in &self.results {
            for (ranks, q) in &r.queueing {
                if !q.within {
                    out.push((r.spec.label(), *ranks));
                }
            }
        }
        out
    }

    /// Per-scenario M/G/1 validation tables — the `fig6-queueing` section:
    /// one row per rank point with the observed replicate mean, the hard
    /// envelope, the offered utilisation, the Pollaczek–Khinchine wait, and
    /// the verdict.
    pub fn render_queueing_tables(&self) -> String {
        let mut out = String::new();
        for r in &self.results {
            out.push_str(&format!("--- {} ---\n", r.spec.label()));
            if let Some(e) = &r.error {
                out.push_str(&format!("no series — {e}\n\n"));
                continue;
            }
            out.push_str(&format!(
                "{:>7} {:>10} {:>10} {:>10} {:>7} {:>12}  verdict\n",
                "ranks", "mean(s)", "lower(s)", "upper(s)", "rho", "mg1-wait(ms)"
            ));
            for (ranks, q) in &r.queueing {
                let wait = if q.bounds.mean_wait_ns.is_finite() {
                    format!("{:>12.3}", q.bounds.mean_wait_ns / 1e6)
                } else {
                    format!("{:>12}", "saturated")
                };
                // Faulted cells forfeit the upper bound entirely.
                let upper = if q.bounds.upper_ns == u64::MAX {
                    format!("{:>10}", "-")
                } else {
                    format!("{:>10.2}", q.bounds.upper_ns as f64 / 1e9)
                };
                out.push_str(&format!(
                    "{ranks:>7} {:>10.2} {:>10.2} {upper} {:>7.2} {wait}  {}\n",
                    q.observed_mean_ns as f64 / 1e9,
                    q.bounds.lower_ns as f64 / 1e9,
                    q.bounds.utilisation,
                    if !q.bounds.applicable {
                        "n/a"
                    } else if q.within {
                        "ok"
                    } else {
                        "VIOLATION"
                    }
                ));
            }
            out.push('\n');
        }
        out
    }

    /// The queueing validation as TSV — one row per (scenario, rank point),
    /// the raw data behind `fig6-queueing`. The `within` column is `n/a`
    /// for cells whose bounds are inapplicable (clamp-reaching tails): such
    /// cells pass vacuously and must not read as validated. Saturated cells
    /// (ρ ≥ 1) have no finite open-system wait; their `mg1_wait_ms` field
    /// is left empty — the TSV convention for a missing datum — rather
    /// than printing a non-numeric `inf` into a numeric column.
    pub fn render_queueing_tsv(&self) -> String {
        let mut s = String::from(
            "workload\tbackend\tstorage\twrap\tcache\tdist\tfault\ttopology\tranks\tmean_s\tlower_s\tupper_s\
             \tutilisation\tmg1_wait_ms\treplicates\twithin\n",
        );
        for r in &self.results {
            for (ranks, q) in &r.queueing {
                let st = r.stats_at(*ranks).map(|s| s.replicates).unwrap_or(1);
                let wait_ms = if q.bounds.mean_wait_ns.is_finite() {
                    format!("{:.3}", q.bounds.mean_wait_ns / 1e6)
                } else {
                    String::new()
                };
                // Missing-datum convention for the forfeited upper bound.
                let upper_s = if q.bounds.upper_ns == u64::MAX {
                    String::new()
                } else {
                    format!("{:.3}", q.bounds.upper_ns as f64 / 1e9)
                };
                s.push_str(&format!(
                    "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{ranks}\t{:.3}\t{:.3}\t{upper_s}\t{:.3}\t{wait_ms}\t{}\t{}\n",
                    r.spec.workload,
                    r.spec.backend,
                    r.spec.storage.name(),
                    r.spec.wrap.name(),
                    r.spec.cache.name(),
                    r.spec.dist.name(),
                    r.spec.fault.name(),
                    r.spec.topology.name(),
                    q.observed_mean_ns as f64 / 1e9,
                    q.bounds.lower_ns as f64 / 1e9,
                    q.bounds.utilisation,
                    st,
                    if !q.bounds.applicable {
                        "n/a"
                    } else if q.within {
                        "yes"
                    } else {
                        "no"
                    }
                ));
            }
        }
        s
    }
}

impl ExperimentMatrix {
    /// Run the matrix against a shared profile cache: every
    /// `(scenario, rank point)` cell through [`ExperimentMatrix::run_cells`]
    /// with one profiling worker. Every rank point is simulated
    /// independently (same per-point `LaunchConfig`, same seed derivation
    /// from the scenario label), so a run over any subset of scenarios or
    /// rank points is bit-identical to the matching slice of a full run —
    /// which is what makes `depchaos-serve`'s per-(scenario, rank point)
    /// memoization sound.
    pub fn run(&self, cache: &ProfileCache) -> SweepReport {
        let scenarios = self.expand();
        let rank_points = self.effective_rank_points();
        let cells: Vec<(usize, usize)> = (0..scenarios.len())
            .flat_map(|i| rank_points.iter().map(move |&ranks| (i, ranks)))
            .collect();
        let run = self.run_cells(&scenarios, &cells, cache, 1);
        let results = scenarios
            .iter()
            .zip(run.answers.chunks(rank_points.len()))
            .map(|(s, answers)| ScenarioResult::assemble(s.spec(), answers))
            .collect();
        SweepReport {
            rank_points,
            results,
            cells_profiled: run.cells_profiled,
            adaptive: self.adaptive,
        }
    }

    /// The cold-cell executor: answer each `(scenario index, rank point)`
    /// of `cells` (indices into `scenarios`, this matrix's expansion).
    /// Each unique profile cell is profiled once on up to `jobs` threads,
    /// a panic failing only its own cells (`"panic in profiling: …"`).
    /// Each scenario is configured and classified once. Every cell's
    /// replicates then run through [`run_adaptive_units`] under this
    /// matrix's stopping rule, or [`AdaptiveControl::fixed`] at its
    /// replicate count — one sequential plan per round.
    pub fn run_cells(
        &self,
        scenarios: &[Scenario],
        cells: &[(usize, usize)],
        cache: &ProfileCache,
        jobs: usize,
    ) -> CellRun {
        // The unique profile cells the requested cells read, in first-use
        // order, and each touched scenario's index into them.
        let mut cell_of: Vec<Option<usize>> = vec![None; scenarios.len()];
        let mut unique: Vec<&Scenario> = Vec::new();
        let mut index: HashMap<CellKey, usize> = HashMap::new();
        for &(i, _) in cells {
            if cell_of[i].is_none() {
                let u = *index.entry(scenarios[i].cell_key()).or_insert(unique.len());
                if u == unique.len() {
                    unique.push(&scenarios[i]);
                }
                cell_of[i] = Some(u);
            }
        }

        let workers = jobs.max(1).min(unique.len().max(1));
        let profiled = par_map(&unique, workers, |s| {
            catch_unwind(AssertUnwindSafe(|| {
                cache.get_or_profile_counted(s.workload.as_ref(), &s.backend, s.storage)
            }))
            .map_err(|e| format!("panic in profiling: {}", panic_msg(e)))
        });
        let cells_profiled = profiled.iter().filter(|p| matches!(p, Ok((_, true)))).count();

        // Per touched scenario: its config, and its (profile summary,
        // classified stream) or its error with whether it was a panic.
        type Source = Result<(ProfileSummary, Arc<ClassifiedStream>), (String, bool)>;
        let derived: Vec<Option<(LaunchConfig, Source)>> = scenarios
            .iter()
            .zip(&cell_of)
            .map(|(s, u)| {
                let profile = &profiled[(*u)?];
                let cfg = s.launch_config(&self.base);
                let source = match profile {
                    Err(msg) => Err((msg.clone(), true)),
                    Ok((cell, _)) => match cell.outcome(s.wrap) {
                        Ok(p) => Ok((p.into(), cache.classified(&cell.key, s.wrap, &p.log, &cfg))),
                        Err(e) => Err((e.clone(), false)),
                    },
                };
                Some((cfg, source))
            })
            .collect();

        let units: Vec<AdaptiveUnit<'_>> = cells
            .iter()
            .filter_map(|&(i, ranks)| {
                let (cfg, source) = derived[i].as_ref()?;
                let (_, stream) = source.as_ref().ok()?;
                Some(AdaptiveUnit { stream, cfg: cfg.clone().with_ranks(ranks) })
            })
            .collect();
        let ctl = self.adaptive.unwrap_or(AdaptiveControl::fixed(self.replicates));
        let mut simulated = units.iter().zip(run_adaptive_units(&units, ctl));

        let answers = cells
            .iter()
            .map(|&(i, ranks)| match &derived[i].as_ref().expect("touched scenario").1 {
                Ok((profile, _)) => {
                    let (unit, reps) = simulated.next().expect("one unit per healthy cell");
                    let stats = LaunchStats::from_results(&reps);
                    let bounds = mg1_bounds(unit.stream, &unit.cfg);
                    CellAnswer {
                        ranks,
                        profile: *profile,
                        error: None,
                        outcome: Some(CellOutcome {
                            result: reps[0],
                            stats,
                            queueing: validate_against_mg1(&bounds, &stats),
                        }),
                        panicked: false,
                    }
                }
                Err((e, panicked)) => CellAnswer {
                    ranks,
                    profile: ProfileSummary::default(),
                    error: Some(e.clone()),
                    outcome: None,
                    panicked: *panicked,
                },
            })
            .collect();
        CellRun { answers, cells_profiled, workers }
    }
}

/// Map `f` over `items` on `workers` scoped threads that pull indices off
/// one atomic cursor (dynamic load balancing: profiling costs vary by
/// orders of magnitude across workloads); results come back in item
/// order. `workers <= 1` runs inline on the caller's thread.
fn par_map<T: Sync, R: Send>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // Relaxed suffices: the cursor only hands out indices, and results
    // travel back through `join`, which synchronises.
    let next = AtomicUsize::new(0);
    let mut out: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|sc| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                sc.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { return done };
                        done.push((i, f(item)));
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, r) in h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)) {
                out[i] = Some(r);
            }
        }
    });
    out.into_iter().map(|r| r.expect("every item claimed once")).collect()
}

/// Render a caught panic payload (the `&str`/`String` cases `panic!`
/// produces; anything else is named as such).
fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::LaunchConfig;
    use crate::matrix::CachePolicy;
    use depchaos_vfs::StorageModel;
    use depchaos_workloads::Pynamic;

    fn small_matrix() -> ExperimentMatrix {
        ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .cache_policies(CachePolicy::all())
            .rank_points([256usize, 512])
    }

    #[test]
    fn cells_profiled_once_across_wrap_and_cache_axes() {
        let cache = ProfileCache::new();
        let report = small_matrix().run(&cache);
        // 1 workload × 1 backend × 1 storage = 1 cell, 4 scenarios.
        assert_eq!(report.results.len(), 4);
        assert_eq!(report.cells_profiled, 1);
        assert_eq!(cache.computed(), 1);
        // Re-running the same matrix against the same cache re-profiles
        // nothing.
        let report2 = small_matrix().run(&cache);
        assert_eq!(report2.cells_profiled, 0);
        assert_eq!(cache.computed(), 1);
    }

    #[test]
    fn classification_shared_across_cache_policies_and_rank_points() {
        let cache = ProfileCache::new();
        small_matrix().run(&cache);
        // 1 cell × 2 wrap states × 1 calibration = 2 classifications, even
        // though 4 scenarios × 2 rank points replayed them.
        assert_eq!(cache.classified_computed(), 2);
        // Re-running reclassifies nothing.
        small_matrix().run(&cache);
        assert_eq!(cache.classified_computed(), 2);
        // A recalibrated base config is a different classification key.
        small_matrix()
            .base_config(LaunchConfig { rtt_ns: 400_000, ..LaunchConfig::default() })
            .run(&cache);
        assert_eq!(cache.classified_computed(), 4);
    }

    #[test]
    fn wrapped_beats_plain_in_the_report() {
        let cache = ProfileCache::new();
        let report = small_matrix()
            .base_config(LaunchConfig {
                base_overhead_ns: 0,
                per_rank_overhead_ns: 0,
                ..LaunchConfig::default()
            })
            .run(&cache);
        let plain = report
            .find(|s| s.wrap == WrapState::Plain && s.cache == CachePolicy::Cold)
            .pop()
            .unwrap();
        let wrapped = report
            .find(|s| s.wrap == WrapState::Wrapped && s.cache == CachePolicy::Cold)
            .pop()
            .unwrap();
        assert!(plain.complete && wrapped.complete);
        assert!(wrapped.stat_openat < plain.stat_openat / 5);
        for &ranks in &[256usize, 512] {
            assert!(wrapped.seconds_at(ranks).unwrap() < plain.seconds_at(ranks).unwrap());
        }
    }

    #[test]
    fn broadcast_cache_policy_reaches_the_des() {
        let cache = ProfileCache::new();
        let report = small_matrix()
            .base_config(LaunchConfig {
                base_overhead_ns: 0,
                per_rank_overhead_ns: 0,
                ..LaunchConfig::default()
            })
            .run(&cache);
        let cold = report
            .find(|s| s.wrap == WrapState::Plain && s.cache == CachePolicy::Cold)
            .pop()
            .unwrap();
        let bcast = report
            .find(|s| s.wrap == WrapState::Plain && s.cache == CachePolicy::Broadcast)
            .pop()
            .unwrap();
        assert!(bcast.seconds_at(512).unwrap() < cold.seconds_at(512).unwrap());
    }

    #[test]
    fn renderers_cover_every_slice() {
        let cache = ProfileCache::new();
        let report = small_matrix().run(&cache);
        let tables = report.render_fig6_tables();
        assert!(tables.contains("pynamic-30 × glibc (nfs, cold cache)"));
        assert!(tables.contains("pynamic-30 × glibc (nfs, broadcast cache)"));
        assert!(tables.contains("speedup"));
        let tsv = report.render_tsv();
        assert!(tsv.starts_with("workload\t"));
        // 4 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 9);
    }

    #[test]
    fn distribution_axis_multiplies_simulation_not_profiling() {
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .distributions(ServiceDistribution::all())
            .replicates(5)
            .rank_points([256usize, 512])
            .run(&cache);
        // 2 wrap states × 3 distributions, one profiled cell.
        assert_eq!(report.results.len(), 6);
        assert_eq!(report.cells_profiled, 1);
        // Classification keys on (cell, wrap, ClassifyParams-incl-dist):
        // replicates and rank points reuse them.
        assert_eq!(cache.classified_computed(), 6);

        for r in &report.results {
            let expect_k = if r.spec.dist.is_deterministic() { 1 } else { 5 };
            for (ranks, st) in &r.stats {
                assert_eq!(st.replicates, expect_k, "{} at {ranks}", r.spec.label());
                assert!(st.p50_ns <= st.p99_ns);
                // Replicate 0 is the series entry.
                assert!(r.result_at(*ranks).is_some());
            }
        }

        let dist_tables = report.render_fig6_dist_tables();
        assert!(dist_tables.contains("det(s)"));
        assert!(dist_tables.contains("jitter-250 p50/p99(s)"));
        assert!(dist_tables.contains("lognormal-500 p50/p99(s)"));
        let tsv = report.render_tsv();
        assert!(tsv.starts_with("workload\tbackend\tstorage\twrap\tcache\tdist\t"));
        // 6 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 13);
    }

    #[test]
    fn queueing_checks_ride_every_swept_cell() {
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .distributions(ServiceDistribution::all())
            .replicates(5)
            .rank_points([512usize, 2048])
            .run(&cache);
        for r in &report.results {
            assert_eq!(r.queueing.len(), 2, "{}: one check per rank point", r.spec.label());
            for (ranks, q) in &r.queueing {
                assert_eq!(q.observed_mean_ns, r.stats_at(*ranks).unwrap().mean_ns);
                assert!(q.within, "{} at {ranks}: {q:?}", r.spec.label());
            }
        }
        assert!(report.queueing_violations().is_empty());
        let tables = report.render_queueing_tables();
        assert!(tables.contains("mg1-wait(ms)"));
        assert!(tables.contains(" ok"));
        assert!(!tables.contains("VIOLATION"));
        let tsv = report.render_queueing_tsv();
        assert!(tsv.starts_with("workload\t"));
        // 6 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 13);
    }

    #[test]
    fn fault_axis_degrades_cells_without_touching_healthy_ones() {
        let faults = [
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 0, duration_ns: 30_000_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 100,
                timeout_ns: 1_000_000_000,
                backoff_base_ns: 250_000_000,
                max_retries: 5,
            },
            FaultModel::Stragglers { frac_milli: 200, slow_milli: 4000 },
        ];
        let base = LaunchConfig {
            base_overhead_ns: 0,
            per_rank_overhead_ns: 0,
            ..LaunchConfig::default()
        };
        let cache = ProfileCache::new();
        let degraded = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .faults(faults)
            .base_config(base.clone())
            .rank_points([256usize, 512])
            .run(&cache);
        // 1 wrap × 4 fault models; faults change simulation, not profiling.
        assert_eq!(degraded.results.len(), 4);
        assert_eq!(cache.computed(), 1);

        // Healthy cells are byte-identical to a matrix with no fault axis —
        // the label (and so the cell seed) never saw the new axis.
        let healthy = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .base_config(base)
            .rank_points([256usize, 512])
            .run(&cache);
        assert_eq!(degraded.get(&healthy.results[0].spec), Some(&healthy.results[0]));

        // Every fault slows the launch, and the accounting says why.
        let healthy_s = healthy.results[0].seconds_at(512).unwrap();
        for r in &degraded.results {
            if r.spec.fault.is_none() {
                continue;
            }
            assert!(
                r.seconds_at(512).unwrap() > healthy_s,
                "{}: fault should cost time",
                r.spec.label()
            );
            let l = r.result_at(512).unwrap();
            match r.spec.fault {
                FaultModel::RpcLoss { .. } => {
                    assert!(l.retries_issued > 0 && l.timeouts_hit > 0)
                }
                FaultModel::Stragglers { .. } => assert!(l.slowed_nodes > 0),
                _ => {}
            }
            // The surviving lower bound still holds for every faulted cell.
            for (ranks, q) in &r.queueing {
                assert!(q.within, "{} at {ranks}: {q:?}", r.spec.label());
                assert_eq!(q.bounds.upper_ns, u64::MAX);
            }
        }

        let tables = degraded.render_fault_tables();
        assert!(tables.contains("healthy"));
        assert!(tables.contains("stall-0-30000000000"));
        assert!(tables.contains("slowdown"));
        let tsv = degraded.render_tsv();
        assert!(tsv.starts_with("workload\tbackend\tstorage\twrap\tcache\tdist\tfault\t"));
        // 4 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 9);
        let qtsv = degraded.render_queueing_tsv();
        // Faulted rows leave the forfeited upper bound empty.
        assert!(qtsv.lines().skip(1).any(|l| l.split('\t').nth(11) == Some("")));
    }

    #[test]
    fn topology_axis_flattens_cells_without_touching_single_server_ones() {
        let base = LaunchConfig {
            base_overhead_ns: 0,
            per_rank_overhead_ns: 0,
            ..LaunchConfig::default()
        };
        let cache = ProfileCache::new();
        let topologies = [
            ServerTopology::single(),
            ServerTopology::hash(2),
            ServerTopology::hash(8),
            ServerTopology::least_loaded(4),
        ];
        let fleet = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .topologies(topologies)
            .base_config(base.clone())
            .rank_points([256usize, 512])
            .run(&cache);
        // 1 wrap × 4 fleets; topology changes simulation, not profiling.
        assert_eq!(fleet.results.len(), 4);
        assert_eq!(cache.computed(), 1);

        // Single-server cells are byte-identical to a matrix with no
        // topology axis — the label (and so the cell seed) never saw it.
        let single = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .base_config(base)
            .rank_points([256usize, 512])
            .run(&cache);
        assert_eq!(fleet.get(&single.results[0].spec), Some(&single.results[0]));

        // Every fleet is at least as fast as the paper's one server, and
        // each multi-server cell carries a passing M/G/k check.
        let single_s = single.results[0].seconds_at(512).unwrap();
        for r in &fleet.results {
            assert!(
                r.seconds_at(512).unwrap() <= single_s,
                "{}: more servers must not slow the launch",
                r.spec.label()
            );
            for (ranks, q) in &r.queueing {
                assert_eq!(q.bounds.servers, r.spec.topology.servers);
                assert!(q.within, "{} at {ranks}: {q:?}", r.spec.label());
            }
        }
        assert!(fleet.queueing_violations().is_empty());

        let tables = fleet.render_servers_tables();
        assert!(tables.contains("1-server"));
        assert!(tables.contains("servers-8-hash"));
        assert!(tables.contains("speedup"));
        assert!(tables.contains("flattens at"));
        let tsv = fleet.render_tsv();
        assert!(tsv.starts_with("workload\tbackend\tstorage\twrap\tcache\tdist\tfault\ttopology\t"));
        assert!(tsv.contains("\tservers-4-least\t"));
        // 4 scenarios × 2 rank points + header.
        assert_eq!(tsv.lines().count(), 9);
    }

    /// The from-scratch oracle for a matrix: per scenario and rank point,
    /// a hand-derived config, a fresh classification, and `k` replicates
    /// (one for draw-free cells) through `simulate_classified` — nothing
    /// of the executor, the replicate driver or the batch plan.
    fn per_replicate_oracle(m: &ExperimentMatrix, k: usize) -> Vec<ScenarioResult> {
        use crate::des::simulate_classified;
        use crate::sweep::replicate_seed;
        let cache = ProfileCache::new();
        let base = m.base();
        m.expand()
            .iter()
            .map(|s| {
                let cell = cache.get_or_profile(s.workload.as_ref(), &s.backend, s.storage);
                let p = cell.outcome(s.wrap).as_ref().expect("healthy oracle cells");
                let mut cfg = s.cache.apply(base.clone());
                cfg.service_dist = s.dist;
                cfg.fault = s.fault;
                cfg.topology = s.topology;
                cfg.seed = scenario_seed(base.seed, &s.spec().label());
                let stream = ClassifiedStream::classify(&p.log, &cfg);
                let k = if s.dist.is_deterministic() && !s.fault.takes_draws() { 1 } else { k };
                let mut r = ScenarioResult {
                    spec: s.spec(),
                    stat_openat: p.stat_openat,
                    misses: p.misses,
                    complete: p.complete,
                    unresolved: p.unresolved,
                    error: None,
                    series: Vec::new(),
                    stats: Vec::new(),
                    queueing: Vec::new(),
                };
                for ranks in m.effective_rank_points() {
                    let at = cfg.clone().with_ranks(ranks);
                    let reps: Vec<LaunchResult> = (0..k)
                        .map(|rep| {
                            let c = at.clone().with_seed(replicate_seed(cfg.seed, rep));
                            simulate_classified(&stream, &c)
                        })
                        .collect();
                    let mut samples: Vec<u64> = reps.iter().map(|l| l.time_to_launch_ns).collect();
                    let st = LaunchStats::from_samples(&mut samples);
                    r.series.push((ranks, reps[0]));
                    r.stats.push((ranks, st));
                    r.queueing.push((ranks, validate_against_mg1(&mg1_bounds(&stream, &at), &st)));
                }
                r
            })
            .collect()
    }

    #[test]
    fn adaptive_matrix_with_disabled_target_is_the_fixed_matrix() {
        let cache = ProfileCache::new();
        let m = || {
            ExperimentMatrix::new()
                .workload(Pynamic::new(30))
                .backend(MatrixBackend::glibc())
                .storage(StorageModel::Nfs)
                .wrap_states(WrapState::all())
                .distributions(ServiceDistribution::all())
                .replicates(5)
                .rank_points([256usize, 512])
        };
        let fixed = m().run(&cache);
        let ctl = AdaptiveControl { target_rel_milli: 0, min_k: 1, max_k: 5, batch: 2 };
        let adaptive = m().adaptive(ctl).run(&cache);
        let oracle = per_replicate_oracle(&m(), 5);
        assert_eq!(fixed.results, oracle, "fixed K = the per-replicate recomputation");
        assert_eq!(adaptive.results, oracle, "disabled target ⇒ the fixed-K samples");
        assert_eq!(adaptive.adaptive, Some(ctl));
        assert_eq!(fixed.adaptive, None);
        // The stopping column tells the two reports apart.
        assert!(fixed.render_tsv().contains("\tfixed@5\n"));
        assert!(adaptive.render_tsv().contains("\tadaptive-0m@5\n"));
    }

    #[test]
    fn a_panicking_workload_fails_only_its_own_cells() {
        use depchaos_workloads::Poison;
        // One poisoned workload next to a healthy one; both wrap states.
        let report = ExperimentMatrix::new()
            .workload(Poison)
            .workload(Pynamic::new(10))
            .rank_points([256usize])
            .run(&ProfileCache::new());
        let poisoned = report.find(|s| s.workload == "poison");
        assert_eq!(poisoned.len(), 2);
        for r in &poisoned {
            let e = r.error.as_deref().unwrap();
            assert!(e.contains("panic in profiling"), "{e}");
            assert!(e.contains("deliberate install panic"), "{e}");
            assert!(r.series.is_empty());
        }
        for r in report.find(|s| s.workload == "pynamic-10") {
            assert!(r.error.is_none());
            assert_eq!(r.series.len(), 1);
        }
        assert_eq!(report.cells_profiled, 1, "a panicked profile is never cached");
    }

    #[test]
    fn adaptive_matrix_stops_early_and_keeps_the_deterministic_clamp() {
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(30))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states([WrapState::Plain])
            .distributions(ServiceDistribution::all())
            .replicates(25)
            .adaptive(AdaptiveControl { target_rel_milli: 500, min_k: 2, max_k: 25, batch: 2 })
            .rank_points([256usize, 512])
            .run(&cache);
        let mut stopped_early = 0usize;
        for r in &report.results {
            for (ranks, st) in &r.stats {
                if r.spec.dist.is_deterministic() {
                    assert_eq!(st.replicates, 1, "clamp survives adaptive control");
                } else {
                    assert!(st.replicates >= 2, "{} at {ranks}", r.spec.label());
                    if st.replicates < 25 {
                        stopped_early += 1;
                    }
                    // The half-width the rule certified: within 50% of the
                    // mean at stop (loose target, loose check).
                    assert!(st.p50_ns > 0);
                }
                // Replicate 0 is still the series entry.
                assert!(r.result_at(*ranks).is_some());
            }
        }
        assert!(stopped_early > 0, "a 50% target must stop some cells early");
        // Queueing envelopes (widened by the smaller K) still hold.
        assert!(report.queueing_violations().is_empty());
    }

    #[test]
    fn scenario_seeds_are_stable_and_per_cell() {
        let a = scenario_seed(1, "pynamic-30/glibc/nfs/plain/cold/lognormal-500");
        let b = scenario_seed(1, "pynamic-30/glibc/nfs/plain/cold/lognormal-500");
        let c = scenario_seed(1, "pynamic-30/glibc/nfs/wrapped/cold/lognormal-500");
        let d = scenario_seed(2, "pynamic-30/glibc/nfs/plain/cold/lognormal-500");
        assert_eq!(a, b, "pure function of (seed, label)");
        assert_ne!(a, c, "cells draw decorrelated streams");
        assert_ne!(a, d, "the experiment seed moves every cell");
    }

    #[test]
    fn a_backend_that_cannot_wrap_is_reported_not_fatal() {
        use depchaos_core::LoaderBackend;
        // The future loader ignores RUNPATH, so it can neither resolve nor
        // wrap the stock pynamic world — the report carries the error.
        let cache = ProfileCache::new();
        let report = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .backend(MatrixBackend::Stock(LoaderBackend::future()))
            .run(&cache);
        let wrapped = report.find(|s| s.wrap == WrapState::Wrapped).pop().unwrap();
        assert!(wrapped.error.as_deref().unwrap_or_default().contains("wrap failed"));
        let plain = report.find(|s| s.wrap == WrapState::Plain).pop().unwrap();
        assert!(!plain.complete, "future cannot see RUNPATH dirs");
        let tables = report.render_fig6_tables();
        assert!(tables.contains("wrap failed") || tables.contains("no series"));
    }
}
