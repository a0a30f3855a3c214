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
//! The cold side is the launch crate's one cold-cell executor,
//! [`ExperimentMatrix::run_cells`] — the same code
//! [`ExperimentMatrix::run`] runs — called on the misses: profiling on
//! `jobs` threads pulling unique cold *cells* off an atomic cursor
//! (`jobs <= 1` runs inline), then every cold `(scenario, rank point)` —
//! the **miss** work unit, so a skewed what-if batch costs exactly its
//! missing points — simulated sequentially, one batch plan per replicate
//! round. What stays here is serve-specific: keys, the warm/cold split,
//! persisting fresh records, and [`ExecStats`].

use std::collections::HashMap;

use depchaos_launch::{CellAnswer, ExperimentMatrix, ProfileCache, ScenarioResult, SweepReport};

use crate::codec::CellRecord;
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
    /// Rank-point work units fed to the cold-cell executor (==
    /// `cold_cells`; kept separate because it counts executor inputs, not
    /// store deltas).
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

/// Run `matrix` against `store`: serve warm cells, answer the misses with
/// the launch crate's cold-cell executor (profiling on `jobs` workers),
/// persist every fresh record, and aggregate the report in matrix order.
/// The report's `results` are bit-identical to `matrix.run(profiles)`
/// regardless of how the warm/cold line falls (`cells_profiled`
/// necessarily differs — a warm run profiles nothing).
pub fn run_matrix_incremental(
    matrix: &ExperimentMatrix,
    store: &ResultStore,
    profiles: &ProfileCache,
    jobs: usize,
) -> std::io::Result<(SweepReport, ExecStats)> {
    let scenarios = matrix.expand();
    let specs: Vec<_> = scenarios.iter().map(|s| s.spec()).collect();
    let rank_points = matrix.effective_rank_points();

    // Address every cell and split warm from cold. Misses are collected
    // per rank point — the executor's cell granularity.
    let mut answers: HashMap<ScenarioKey, CellAnswer> = HashMap::new();
    let mut misses: Vec<(usize, usize)> = Vec::new();
    let mut miss_keys: Vec<ScenarioKey> = Vec::new();
    let mut keys: Vec<Vec<ScenarioKey>> = Vec::with_capacity(scenarios.len());
    for (i, spec) in specs.iter().enumerate() {
        let mut cell_keys = Vec::with_capacity(rank_points.len());
        for &ranks in &rank_points {
            let key = CellIdentity {
                spec,
                ranks,
                replicates: matrix.replicate_count(),
                adaptive: matrix.adaptive_control(),
                base: matrix.base(),
            }
            .key();
            cell_keys.push(key);
            match store.get(key) {
                Some(rec) => {
                    answers.insert(key, rec.into());
                }
                None => {
                    misses.push((i, ranks));
                    miss_keys.push(key);
                }
            }
        }
        keys.push(cell_keys);
    }
    let cells_total = scenarios.len() * rank_points.len();
    let warm_hits = answers.len();

    // Simulate the misses, persist them, and fold them into the answers.
    // Panicked cells are reported but NOT persisted: a crash is transient
    // evidence of a bug, not a reproducible result the store should keep
    // serving.
    let run = matrix.run_cells(&scenarios, &misses, profiles, jobs);
    let mut panics = 0usize;
    for ((&(i, _), key), answer) in misses.iter().zip(miss_keys).zip(run.answers) {
        if answer.panicked {
            panics += 1;
        } else {
            store.put(CellRecord {
                key,
                epoch: ENGINE_EPOCH,
                label: specs[i].label(),
                ranks: answer.ranks,
                profile: answer.profile,
                error: answer.error.clone(),
                outcome: answer.outcome,
            })?;
        }
        answers.insert(key, answer);
    }

    let results: Vec<ScenarioResult> = specs
        .into_iter()
        .zip(&keys)
        .map(|(spec, cell_keys)| {
            ScenarioResult::assemble(spec, cell_keys.iter().map(|k| &answers[k]))
        })
        .collect();
    let stats = ExecStats {
        scenarios: scenarios.len(),
        cells_total,
        warm_hits,
        cold_cells: cells_total - warm_hits,
        shards: misses.len(),
        jobs: run.workers,
        cells_profiled: run.cells_profiled,
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

    /// The from-scratch oracle for a healthy matrix: per scenario and rank
    /// point, a hand-derived config, a fresh classification, and the
    /// replicates one by one through `simulate_classified` — none of the
    /// executor, the replicate driver or the batch plan.
    fn per_replicate_oracle(m: &ExperimentMatrix) -> Vec<ScenarioResult> {
        use depchaos_launch::{
            mg1_bounds, replicate_seed, scenario_seed, simulate_classified, validate_against_mg1,
            ClassifiedStream, LaunchResult, LaunchStats,
        };
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
                let draws = !s.dist.is_deterministic() || s.fault.takes_draws();
                let k = if draws { m.replicate_count() } else { 1 };
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
    fn cold_run_matches_direct_run_and_warm_replay_simulates_nothing() {
        let direct = per_replicate_oracle(&matrix());
        assert_eq!(matrix().run(&ProfileCache::new()).results, direct);

        let store = ResultStore::in_memory();
        let (cold, cs) =
            run_matrix_incremental(&matrix(), &store, &ProfileCache::new(), 2).unwrap();
        assert_eq!(cold.results, direct);
        assert_eq!(cold.rank_points, matrix().effective_rank_points());
        assert_eq!(cs.cold_cells, cs.cells_total);
        assert_eq!(cs.warm_hits, 0);
        assert_eq!(cs.cells_total, 8 * 2);
        assert_eq!(store.len(), cs.cells_total);

        // Warm replay: fresh profile cache proves nothing re-profiles or
        // re-simulates — every answer comes off the store.
        let warm_profiles = ProfileCache::new();
        let (warm, ws) = run_matrix_incremental(&matrix(), &store, &warm_profiles, 2).unwrap();
        assert_eq!(warm.results, direct);
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
