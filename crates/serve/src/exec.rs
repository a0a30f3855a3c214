//! The incremental batched executor: expand a matrix, serve every cell the
//! store already holds, simulate only the misses, and aggregate a
//! [`SweepReport`] bit-identical to a cold full run.
//!
//! Identity of warm and cold answers is not a best effort — it falls out
//! of the engine's structure:
//!
//! * every `(scenario, rank point)` is simulated independently (per-point
//!   config, per-point replicate seeds derived from the scenario label),
//!   so a *subset* of rank points is bit-identical to the matching slice
//!   of a full run;
//! * the store's [`ScenarioKey`] hashes every
//!   semantic input of a cell, so a hit can only be a result the cold
//!   path would have recomputed verbatim;
//! * floats round-trip the disk by bit pattern, so a record read back
//!   compares `==` to the record that was written.
//!
//! The cold side runs in two stages. Profiling — the expensive part — is
//! fanned over a pool of worker threads pulling unique cold *cells* off a
//! shared counter (`jobs <= 1` runs inline on the caller's thread with no
//! spawns). Simulation then feeds every cold `(scenario, rank point)` —
//! the **miss** work unit, finer than the old whole-scenario shards, so a
//! skewed what-if batch costs exactly its missing points — into one
//! [`BatchPlan`] and executes the
//! whole backlog in a single pass. Each scenario is classified once, and
//! the `Arc<ClassifiedStream>` handed out by the shared
//! [`ProfileCache`] is what every one of its miss rows borrows.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use depchaos_launch::{
    mg1_bounds, replicate_seed, run_adaptive_units, scenario_seed, validate_against_mg1,
    AdaptiveUnit, BatchPlan, CellProfile, ClassifiedStream, ExperimentMatrix, LaunchConfig,
    LaunchStats, ProfileCache, Scenario, ScenarioResult, ScenarioSpec, SweepReport,
};

use crate::codec::{CellOutcome, CellRecord, ProfileSummary};
use crate::key::{CellIdentity, ScenarioKey, ENGINE_EPOCH};
use crate::store::ResultStore;

/// What one incremental run did — the hit/miss accounting the serve front
/// door reports per batch and CI asserts on (a warm replay must show
/// `cold_cells == 0`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Scenarios in the expanded matrix.
    pub scenarios: usize,
    /// `(scenario, rank point)` cells the matrix describes.
    pub cells_total: usize,
    /// Cells answered from the store.
    pub warm_hits: usize,
    /// Cells simulated by this run.
    pub cold_cells: usize,
    /// Rank-point work units fed to the batch planner (== `cold_cells`;
    /// kept separate because it counts planner inputs, not store deltas).
    pub shards: usize,
    /// Worker threads the profiling pool used.
    pub jobs: usize,
    /// Profiling runs this call triggered.
    pub cells_profiled: usize,
    /// Cold cells whose profiling run panicked. Each is isolated by a
    /// per-cell `catch_unwind`, reported as a failed cell, and *not*
    /// persisted — the rest of the batch completes normally.
    pub panics: usize,
}

impl ExecStats {
    /// Warm fraction in `[0, 1]`; 1.0 for an empty matrix.
    pub fn hit_rate(&self) -> f64 {
        if self.cells_total == 0 {
            1.0
        } else {
            self.warm_hits as f64 / self.cells_total as f64
        }
    }
}

/// A sensible worker count when the caller has no opinion.
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// One cold `(scenario, rank point)` cell: the work unit the batch
/// planner consumes.
struct Miss {
    scenario: usize,
    ranks: usize,
    key: ScenarioKey,
}

/// Per-scenario cold-side prep, shared by every miss of the scenario:
/// the derived config and either the (profile, classification) pair —
/// the classification an `Arc` straight out of the [`ProfileCache`] — or
/// the profiling error.
struct Prep {
    spec: ScenarioSpec,
    cfg: LaunchConfig,
    outcome: Result<(Arc<CellProfile>, Arc<ClassifiedStream>), String>,
    /// The error in `outcome` is a caught profiling panic. Panicked cells
    /// are reported but never persisted — a crash is not a result.
    panicked: bool,
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

/// Run `matrix` against `store`: serve warm cells, profile cold cells on
/// `jobs` workers, simulate every miss in one batched pass, persist every
/// fresh record, and aggregate the report in matrix order. The report's
/// `results` are bit-identical to `matrix.run(profiles)` regardless of
/// how the warm/cold line falls (`cells_profiled` necessarily differs —
/// a warm run profiles nothing).
pub fn run_matrix_incremental(
    matrix: &ExperimentMatrix,
    store: &ResultStore,
    profiles: &ProfileCache,
    jobs: usize,
) -> std::io::Result<(SweepReport, ExecStats)> {
    let scenarios = matrix.expand();
    let rank_points = matrix.effective_rank_points();
    let replicates = matrix.replicate_count();
    let base = matrix.base();
    let profiled_before = profiles.computed();

    // Phase 1: address every cell and split warm from cold. Misses are
    // collected per rank point — the planner's row granularity.
    let mut warm: HashMap<ScenarioKey, CellRecord> = HashMap::new();
    let mut misses: Vec<Miss> = Vec::new();
    let mut keys: Vec<Vec<(usize, ScenarioKey)>> = Vec::with_capacity(scenarios.len());
    for (i, s) in scenarios.iter().enumerate() {
        let spec = s.spec();
        let mut cell_keys = Vec::with_capacity(rank_points.len());
        for &ranks in &rank_points {
            let key = CellIdentity {
                spec: &spec,
                ranks,
                replicates,
                adaptive: matrix.adaptive_control(),
                base,
            }
            .key();
            cell_keys.push((ranks, key));
            match store.get(key) {
                Some(rec) => {
                    warm.insert(key, rec);
                }
                None => misses.push(Miss { scenario: i, ranks, key }),
            }
        }
        keys.push(cell_keys);
    }
    let cells_total = scenarios.len() * rank_points.len();
    let warm_hits = warm.len();
    let cold_cells = cells_total - warm_hits;

    // Phase 2a: profile every unique cold cell. Workers pull cells off a
    // shared counter — dynamic load balancing, since profiling costs vary
    // by orders of magnitude across workloads.
    let mut cold_scenarios: Vec<usize> = Vec::new();
    for m in &misses {
        if cold_scenarios.last() != Some(&m.scenario) {
            cold_scenarios.push(m.scenario);
        }
    }
    let mut cold_cell_scenarios: Vec<&Scenario> = Vec::new();
    let mut seen_cells = std::collections::HashSet::new();
    for &i in &cold_scenarios {
        if seen_cells.insert(scenarios[i].cell_key()) {
            cold_cell_scenarios.push(&scenarios[i]);
        }
    }
    let workers = jobs.max(1).min(cold_cell_scenarios.len().max(1));
    // Each profiling run is isolated behind its own `catch_unwind`: a
    // workload that panics mid-install poisons only its own cell (the
    // cache entry is simply never filled — `parking_lot` mutexes don't
    // poison), and every other cell of the batch completes. Workers
    // discard the verdict; phase 2b re-calls and keeps it.
    let profile_cell = |s: &Scenario| {
        catch_unwind(AssertUnwindSafe(|| {
            profiles.get_or_profile(s.workload.as_ref(), &s.backend, s.storage)
        }))
    };
    if workers <= 1 {
        for s in &cold_cell_scenarios {
            let _ = profile_cell(s);
        }
    } else {
        let next = AtomicUsize::new(0);
        std::thread::scope(|sc| {
            for _ in 0..workers {
                sc.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(s) = cold_cell_scenarios.get(i) else { break };
                    let _ = profile_cell(s);
                });
            }
        });
    }

    // Phase 2b: derive each cold scenario's config (seeded from its
    // label, exactly as a full run does) and classify it once — the
    // shared `Arc<ClassifiedStream>` every one of its misses borrows.
    let preps: HashMap<usize, Prep> = cold_scenarios
        .iter()
        .map(|&i| {
            let s = &scenarios[i];
            let spec = s.spec();
            let mut cfg = s.cache.apply(base.clone());
            cfg.service_dist = s.dist;
            cfg.fault = s.fault;
            cfg.topology = s.topology;
            cfg.seed = scenario_seed(base.seed, &spec.label());
            // Phase 2a warmed the cache, so this re-call is a lookup —
            // unless the cell's profiling panicked, in which case it
            // panics again here, caught again, and becomes the outcome.
            let (outcome, panicked) = match profile_cell(s) {
                Ok(cell) => (
                    match cell.outcome(s.wrap) {
                        Ok(p) => {
                            let stream = profiles.classified(&cell.key, s.wrap, &p.log, &cfg);
                            Ok((Arc::clone(&cell), stream))
                        }
                        Err(e) => Err(e.clone()),
                    },
                    false,
                ),
                Err(e) => (Err(format!("panic in profiling: {}", panic_msg(e))), true),
            };
            (i, Prep { spec, cfg, outcome, panicked })
        })
        .collect();

    // Phase 2c: simulate the cold backlog. Under fixed K every miss is K
    // replicate rows of one plan, identical to the grid a full
    // run gathers. Under adaptive control each miss becomes one
    // [`AdaptiveUnit`] of the shared multi-round driver — the stopping
    // decision is a pure function of the unit alone, so a miss stops at
    // the same K it would in a cold full run no matter how the warm/cold
    // line falls (and the per-round plans still deduplicate kernels
    // across the backlog).
    let miss_reps: Vec<Vec<depchaos_launch::LaunchResult>> = match matrix.adaptive_control() {
        Some(ctl) => {
            let mut units: Vec<AdaptiveUnit<'_>> = Vec::new();
            let mut unit_of: Vec<Option<usize>> = Vec::with_capacity(misses.len());
            for m in &misses {
                let prep = &preps[&m.scenario];
                match &prep.outcome {
                    Ok((_, stream)) => {
                        unit_of.push(Some(units.len()));
                        units.push(AdaptiveUnit {
                            stream,
                            cfg: prep.cfg.clone().with_ranks(m.ranks),
                        });
                    }
                    Err(_) => unit_of.push(None),
                }
            }
            let mut per_unit = run_adaptive_units(&units, ctl);
            unit_of
                .iter()
                .map(|u| u.map(|i| std::mem::take(&mut per_unit[i])).unwrap_or_default())
                .collect()
        }
        None => {
            let mut plan = BatchPlan::new();
            let mut miss_rows: Vec<usize> = Vec::with_capacity(misses.len());
            for m in &misses {
                let prep = &preps[&m.scenario];
                let Ok((_, stream)) = &prep.outcome else {
                    miss_rows.push(0);
                    continue;
                };
                let id = plan.stream(stream);
                let k = if prep.cfg.service_dist.is_deterministic() && !prep.cfg.fault.takes_draws()
                {
                    1
                } else {
                    replicates.max(1)
                };
                for r in 0..k {
                    let cfg = prep
                        .cfg
                        .clone()
                        .with_ranks(m.ranks)
                        .with_seed(replicate_seed(prep.cfg.seed, r));
                    plan.push(id, &cfg);
                }
                miss_rows.push(k);
            }
            let rows = plan.execute();
            let mut cursor = 0usize;
            miss_rows
                .iter()
                .map(|&n| {
                    let reps = rows[cursor..cursor + n].to_vec();
                    cursor += n;
                    reps
                })
                .collect()
        }
    };

    // Phase 3: scatter the replicate vectors into per-rank-point records,
    // persist them, and fold them into the warm map. Panicked cells are
    // folded into the report but NOT persisted: a crash is transient
    // evidence of a bug, not a reproducible result the store should keep
    // serving.
    let mut panics = 0usize;
    for (m, reps) in misses.iter().zip(&miss_reps) {
        let prep = &preps[&m.scenario];
        let rec = match &prep.outcome {
            Ok((cell, stream)) => {
                let p = cell
                    .outcome(prep.spec.wrap)
                    .as_ref()
                    .expect("prep outcome mirrors the cell outcome");
                let mut samples: Vec<u64> = reps.iter().map(|l| l.time_to_launch_ns).collect();
                let stats = LaunchStats::from_samples(&mut samples);
                let b = mg1_bounds(stream, &prep.cfg.clone().with_ranks(m.ranks));
                CellRecord {
                    key: m.key,
                    epoch: ENGINE_EPOCH,
                    label: prep.spec.label(),
                    ranks: m.ranks,
                    profile: ProfileSummary {
                        stat_openat: p.stat_openat,
                        misses: p.misses,
                        complete: p.complete,
                        unresolved: p.unresolved,
                    },
                    error: None,
                    outcome: Some(CellOutcome {
                        result: reps[0],
                        stats,
                        queueing: validate_against_mg1(&b, &stats),
                    }),
                }
            }
            Err(e) => CellRecord {
                key: m.key,
                epoch: ENGINE_EPOCH,
                label: prep.spec.label(),
                ranks: m.ranks,
                profile: ProfileSummary {
                    stat_openat: 0,
                    misses: 0,
                    complete: false,
                    unresolved: 0,
                },
                error: Some(e.clone()),
                outcome: None,
            },
        };
        if prep.panicked {
            panics += 1;
        } else {
            store.put(rec.clone())?;
        }
        warm.insert(rec.key, rec);
    }

    // Phase 4: aggregate in matrix order — the exact shape `run()` builds.
    let results: Vec<ScenarioResult> = scenarios
        .iter()
        .zip(&keys)
        .map(|(s, cell_keys)| {
            let recs: Vec<&CellRecord> =
                cell_keys.iter().filter_map(|(_, k)| warm.get(k)).collect();
            assemble(s, &recs)
        })
        .collect();

    let stats = ExecStats {
        scenarios: scenarios.len(),
        cells_total,
        warm_hits,
        cold_cells,
        shards: misses.len(),
        jobs: workers,
        cells_profiled: profiles.computed() - profiled_before,
        panics,
    };
    let report = SweepReport {
        rank_points,
        results,
        cells_profiled: stats.cells_profiled,
        adaptive: matrix.adaptive_control(),
    };
    Ok((report, stats))
}

/// Rebuild one [`ScenarioResult`] from its per-rank-point records (in rank
/// point order). The spec comes from the in-hand scenario — records only
/// carry the label — so aggregation never parses names.
fn assemble(s: &Scenario, recs: &[&CellRecord]) -> ScenarioResult {
    let spec = s.spec();
    let profile = recs.first().map(|r| r.profile).unwrap_or(ProfileSummary {
        stat_openat: 0,
        misses: 0,
        complete: false,
        unresolved: 0,
    });
    let error = recs.iter().find_map(|r| r.error.clone());
    let mut series = Vec::new();
    let mut stats = Vec::new();
    let mut queueing = Vec::new();
    if error.is_none() {
        for rec in recs {
            if let Some(o) = &rec.outcome {
                series.push((rec.ranks, o.result));
                stats.push((rec.ranks, o.stats));
                queueing.push((rec.ranks, o.queueing));
            }
        }
    }
    ScenarioResult {
        spec,
        stat_openat: profile.stat_openat,
        misses: profile.misses,
        complete: profile.complete,
        unresolved: profile.unresolved,
        error,
        series,
        stats,
        queueing,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_launch::{CachePolicy, MatrixBackend, ServiceDistribution, WrapState};
    use depchaos_vfs::StorageModel;
    use depchaos_workloads::Pynamic;

    fn matrix() -> ExperimentMatrix {
        ExperimentMatrix::new()
            .workload(Pynamic::new(20))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .cache_policies(CachePolicy::all())
            .distributions([
                ServiceDistribution::Deterministic,
                ServiceDistribution::log_normal(0.5),
            ])
            .replicates(3)
            .rank_points([256usize, 512])
    }

    #[test]
    fn cold_run_matches_direct_run_and_warm_replay_simulates_nothing() {
        let direct = matrix().run(&ProfileCache::new());

        let store = ResultStore::in_memory();
        let (cold, cs) =
            run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 2).unwrap();
        assert_eq!(cold.results, direct.results);
        assert_eq!(cold.rank_points, direct.rank_points);
        assert_eq!(cs.cold_cells, cs.cells_total);
        assert_eq!(cs.warm_hits, 0);
        assert_eq!(cs.cells_total, 8 * 2);
        assert_eq!(store.len(), cs.cells_total);

        // Warm replay: fresh profile cache proves nothing re-profiles or
        // re-simulates — every answer comes off the store.
        let warm_profiles = ProfileCache::new();
        let (warm, ws) = run_matrix_incremental(&matrix(), &store, &warm_profiles, 2).unwrap();
        assert_eq!(warm.results, direct.results);
        assert_eq!(ws.cold_cells, 0);
        assert_eq!(ws.warm_hits, ws.cells_total);
        assert_eq!(ws.shards, 0);
        assert_eq!(ws.cells_profiled, 0);
        assert_eq!(warm_profiles.computed(), 0);
        assert!((ws.hit_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn partial_warmth_runs_exactly_the_missing_cells() {
        let store = ResultStore::in_memory();
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();

        // Grow the matrix by one rank point: only the new column is cold.
        let grown = matrix().rank_points([1024usize]);
        let (report, stats) =
            run_matrix_incremental(&grown, &store, &ProfileCache::new(), 4).unwrap();
        assert_eq!(stats.cells_total, 8 * 3);
        assert_eq!(stats.cold_cells, 8);
        assert_eq!(stats.warm_hits, 16);
        assert_eq!(stats.shards, 8, "every scenario misses exactly its new point");

        // And the merged report equals a cold run of the grown matrix.
        let direct = grown.run(&ProfileCache::new());
        assert_eq!(report.results, direct.results);
    }

    #[test]
    fn editing_one_axis_invalidates_exactly_the_affected_cells() {
        let store = ResultStore::in_memory();
        let (_, cold) = run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
        assert_eq!(cold.cold_cells, 16);

        // A new distribution value re-keys only the cells that carry it:
        // the deterministic half of the matrix stays warm.
        let edited = ExperimentMatrix::new()
            .workload(Pynamic::new(20))
            .backend(MatrixBackend::glibc())
            .storage(StorageModel::Nfs)
            .wrap_states(WrapState::all())
            .cache_policies(CachePolicy::all())
            .distributions([
                ServiceDistribution::Deterministic,
                ServiceDistribution::log_normal(0.75),
            ])
            .replicates(3)
            .rank_points([256usize, 512]);
        let (_, stats) = run_matrix_incremental(&edited, &store, &ProfileCache::new(), 1).unwrap();
        assert_eq!(stats.warm_hits, 8, "deterministic cells untouched");
        assert_eq!(stats.cold_cells, 8, "exactly the lognormal cells re-ran");
    }

    #[test]
    fn adaptive_matrix_serves_warm_and_matches_the_direct_run() {
        use depchaos_launch::AdaptiveControl;
        let ctl = AdaptiveControl { target_rel_milli: 500, min_k: 2, max_k: 11, batch: 2 };
        let m = || matrix().replicates(11).adaptive(ctl);

        // Cold incremental == direct adaptive run, bit for bit — same
        // stopping Ks, same samples — even though the incremental path
        // batches only its misses.
        let direct = m().run(&ProfileCache::new());
        assert_eq!(direct.adaptive, Some(ctl));
        let store = ResultStore::in_memory();
        let (cold, cs) = run_matrix_incremental(&m(), &store, &ProfileCache::new(), 2).unwrap();
        assert_eq!(cold.results, direct.results);
        assert_eq!(cold.adaptive, Some(ctl));
        assert_eq!(cs.cold_cells, cs.cells_total);

        // Warm replay: the stored stopped-at K replays bit-identically
        // with zero simulation.
        let warm_profiles = ProfileCache::new();
        let (warm, ws) = run_matrix_incremental(&m(), &store, &warm_profiles, 2).unwrap();
        assert_eq!(warm.results, direct.results);
        assert_eq!(ws.cold_cells, 0);
        assert_eq!(warm_profiles.computed(), 0);

        // Stochastic cells actually stopped early somewhere (the loose
        // 50% target converges fast), and the stored stats record the K.
        let stochastic: Vec<_> = warm.find(|s| !s.dist.is_deterministic());
        assert!(!stochastic.is_empty());
        assert!(
            stochastic.iter().flat_map(|r| &r.stats).any(|(_, st)| st.replicates < 11),
            "no cell stopped early under a 50% target"
        );
        for r in warm.find(|s| s.dist.is_deterministic()) {
            for (_, st) in &r.stats {
                assert_eq!(st.replicates, 1, "exact cells keep the clamp under adaptive control");
            }
        }
    }

    #[test]
    fn adaptive_and_fixed_plans_occupy_disjoint_store_cells() {
        use depchaos_launch::AdaptiveControl;
        let ctl = AdaptiveControl { target_rel_milli: 500, min_k: 2, max_k: 3, batch: 2 };
        let store = ResultStore::in_memory();
        run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 1).unwrap();
        let fixed_cells = store.len();

        // The adaptive run re-keys exactly the stochastic half: the
        // deterministic cells (adaptive degenerates to the clamp) stay
        // warm, everything else is a distinct plan and a distinct cell.
        let (_, stats) =
            run_matrix_incremental(&matrix().adaptive(ctl), &store, &ProfileCache::new(), 1)
                .unwrap();
        assert_eq!(stats.warm_hits, 8, "deterministic cells shared between plans");
        assert_eq!(stats.cold_cells, 8, "stochastic cells re-keyed by the stopping rule");
        assert_eq!(store.len(), fixed_cells + 8);
    }

    #[test]
    fn a_panicking_cell_is_isolated_reported_and_not_persisted() {
        use depchaos_workloads::Poison;
        // One poisoned workload next to a healthy one; both wrap states.
        let m = || {
            ExperimentMatrix::new()
                .workload(Poison)
                .workload(Pynamic::new(10))
                .rank_points([256usize])
        };
        let store = ResultStore::in_memory();
        let (report, stats) =
            run_matrix_incremental(&m(), &store, &ProfileCache::new(), 4).unwrap();

        // The poisoned cells are failures, counted and carried as errors…
        assert_eq!(stats.panics, 2, "poison × (plain, wrapped) × 1 rank point");
        let poisoned = report.find(|s| s.workload == "poison");
        assert_eq!(poisoned.len(), 2);
        for r in &poisoned {
            let e = r.error.as_deref().unwrap();
            assert!(e.contains("panic in profiling"), "{e}");
            assert!(e.contains("deliberate install panic"), "{e}");
        }
        // …while the rest of the batch completed normally and persisted.
        for r in report.find(|s| s.workload == "pynamic-10") {
            assert!(r.error.is_none());
            assert_eq!(r.series.len(), 1);
        }
        assert_eq!(store.len(), 2, "only the healthy cells are stored");

        // A replay still treats the poisoned cells as cold (crashes are
        // not results) and serves the healthy cells warm.
        let (_, again) = run_matrix_incremental(&m(), &store, &ProfileCache::new(), 1).unwrap();
        assert_eq!(again.warm_hits, 2);
        assert_eq!(again.panics, 2);
    }

    #[test]
    fn error_cells_are_stored_and_served_warm() {
        use depchaos_core::LoaderBackend;
        // The future loader cannot resolve or wrap the stock pynamic world;
        // the cells are errors, and errors are results too.
        let m = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .backend(MatrixBackend::Stock(LoaderBackend::future()))
            .rank_points([256usize]);
        let store = ResultStore::in_memory();
        let (cold, _) = run_matrix_incremental(&m, &store, &ProfileCache::new(), 1).unwrap();
        let warm_profiles = ProfileCache::new();
        let (warm, ws) = run_matrix_incremental(&m, &store, &warm_profiles, 1).unwrap();
        assert_eq!(warm.results, cold.results);
        assert_eq!(ws.cold_cells, 0);
        assert_eq!(warm_profiles.computed(), 0, "error cells answer without re-profiling");
        let wrapped = warm.find(|s| s.wrap == WrapState::Wrapped).pop().unwrap();
        assert!(wrapped.error.is_some());
    }
}
