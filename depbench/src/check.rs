//! Output checks and failure accounting. Everything here runs outside the
//! timed region.
//!
//! `fail_frac = failed / attempted`, where an operation is one query on
//! `whatif_stream` and one `(scenario, rank point)` cell on the matrix
//! workloads, counted once per pass. An operation fails when its request
//! does not parse, its profiling panics, the store returns an I/O error,
//! its cell violates the queueing envelope, or it disagrees with an output
//! check. A cell whose model run ends in an error (for example the future
//! loader's "wrap failed" on a RUNPATH world) is an answer, not a failure.

use depchaos_launch::{
    reference::simulate_launch_reference, replicate_seed, scenario_seed, simulate_classified,
    stop_k, ExperimentMatrix, LaunchStats, ProfileCache, SweepReport,
};
use depchaos_serve::ExecStats;
use depchaos_workloads::SplitMix;

use crate::inputs::Workload;

/// Operations attempted and failed over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    pub fn fail_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Failed cells of one matrix pass: panicked profiling runs plus cells
/// outside their queueing envelope. Error cells are not failures.
pub fn matrix_failures(report: &SweepReport, stats: &ExecStats) -> u64 {
    (stats.panics + report.queueing_violations().len()) as u64
}

/// Did one served query fail? A parse error or a panicked cell does; an
/// error answer for a cell the model cannot load does not.
pub fn query_failed(parse_error: &Option<String>, stats: &ExecStats) -> bool {
    parse_error.is_some() || stats.panics > 0
}

/// A 64-bit FNV-1a digest.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The digest of a matrix pass: every simulated result, statistic and
/// queueing check, in matrix order.
pub fn report_digest(report: &SweepReport) -> u64 {
    fnv(format!("{:?}{:?}", report.rank_points, report.results).as_bytes())
}

/// Output digests of each workload's first pass under the default seed.
/// A perf change must leave every simulated number, and so these, as is.
pub fn recorded_digest(w: Workload) -> u64 {
    match w {
        Workload::StochasticSweep => 0x6ace_e7e1_36a3_727d,
        Workload::ProfileMatrix => 0xd569_9210_87ad_ba85,
        Workload::WhatifStream => 0x2e7b_6e8f_6f51_9523,
        Workload::AdaptiveSweep => 0x9735_8f29_c8e1_0a02,
    }
}

/// Rows re-solved per matrix run.
const SAMPLE_CELLS: usize = 4;
/// Rank points above this are too costly for the reference oracle.
const SAMPLE_MAX_RANKS: usize = 2048;

/// Re-solve a seeded sample of cells one row at a time: replicate 0 with
/// `simulate_classified` and with the reference DES, which must both equal
/// the reported result; every replicate the cell ran with
/// `simulate_classified`, whose statistics must equal the reported ones;
/// under adaptive control, the stopping rule replayed on the full
/// `max_k` sample must land on the reported replicate count. Returns the
/// number of sampled cells that disagree.
pub fn resolve_sample(
    matrix: &ExperimentMatrix,
    report: &SweepReport,
    profiles: &ProfileCache,
    seed: u64,
) -> u64 {
    let scenarios = matrix.expand();
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    for (i, r) in report.results.iter().enumerate() {
        for &(ranks, _) in &r.series {
            if ranks <= SAMPLE_MAX_RANKS {
                candidates.push((i, ranks));
            }
        }
    }
    let mut rng = SplitMix::new(seed ^ 0xc0ffee);
    let mut bad = 0u64;
    for _ in 0..SAMPLE_CELLS.min(candidates.len()) {
        let pick = (rng.next_u64() % candidates.len() as u64) as usize;
        let (i, ranks) = candidates.swap_remove(pick);
        let (s, r) = (&scenarios[i], &report.results[i]);
        let mut cfg = s.cache.apply(matrix.base().clone());
        cfg.service_dist = s.dist;
        cfg.fault = s.fault;
        cfg.topology = s.topology;
        cfg.seed = scenario_seed(matrix.base().seed, &s.spec().label());
        let cfg = cfg.with_ranks(ranks);
        let cell = profiles.get_or_profile(s.workload.as_ref(), &s.backend, s.storage);
        let Ok(p) = cell.outcome(s.wrap) else {
            bad += 1;
            continue;
        };
        let stream = profiles.classified(&cell.key, s.wrap, &p.log, &cfg);
        let row = |rep: usize| cfg.clone().with_seed(replicate_seed(cfg.seed, rep));
        let first = simulate_classified(&stream, &row(0));
        let reference = simulate_launch_reference(&p.log, &row(0));
        let stats = r.stats_at(ranks).copied();
        let k = if !cfg.service_dist.is_deterministic() || cfg.fault.takes_draws() {
            match matrix.adaptive_control() {
                Some(ctl) => ctl.max_k,
                None => matrix.replicate_count(),
            }
        } else {
            1
        };
        let samples: Vec<u64> =
            (0..k).map(|rep| simulate_classified(&stream, &row(rep)).time_to_launch_ns).collect();
        let used = match matrix.adaptive_control() {
            Some(ctl) if k > 1 => stop_k(ctl, &samples),
            _ => k,
        };
        let mut head = samples[..used].to_vec();
        let ok = r.result_at(ranks) == Some(&first)
            && first == reference
            && stats == Some(LaunchStats::from_samples(&mut head));
        bad += u64::from(!ok);
    }
    bad
}

/// Replace a query's id in its answer lines, so that answers to the same
/// cell under different ids compare byte for byte.
pub fn strip_id(answers: &[String], id: &str) -> String {
    let needle = format!("\"id\":\"{id}\"");
    answers.iter().map(|a| a.replacen(&needle, "\"id\":\"\"", 1)).collect::<Vec<_>>().join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_core::LoaderBackend;
    use depchaos_launch::{MatrixBackend, WrapState};
    use depchaos_serve::{run_matrix_incremental, serve_batch, ResultStore};
    use depchaos_workloads::{Poison, Pynamic};

    #[test]
    fn a_poison_query_counts_as_a_failure() {
        let store = ResultStore::in_memory();
        let batch = serve_batch(
            r#"{"id":"boom","base":"poison","ranks":[256]}"#,
            &store,
            &ProfileCache::new(),
            1,
        )
        .unwrap();
        let q = &batch.queries[0];
        assert!(query_failed(&q.parse_error, &q.stats));

        let m = ExperimentMatrix::new().workload(Poison).rank_points([256usize]);
        let (report, stats) =
            run_matrix_incremental(&m, &ResultStore::in_memory(), &ProfileCache::new(), 1).unwrap();
        assert_eq!(matrix_failures(&report, &stats), 2, "plain and wrapped both panic");
    }

    #[test]
    fn a_parse_error_counts_as_a_failure() {
        let store = ResultStore::in_memory();
        let batch = serve_batch(
            r#"{"id":"bad","base":"pynamic-20","dist":"uniform-200"}"#,
            &store,
            &ProfileCache::new(),
            1,
        )
        .unwrap();
        let q = &batch.queries[0];
        assert!(query_failed(&q.parse_error, &q.stats));
    }

    #[test]
    fn a_model_error_cell_is_an_answer_not_a_failure() {
        let store = ResultStore::in_memory();
        let batch = serve_batch(
            r#"{"id":"fut","base":"pynamic-10","backend":"future","wrap":"wrapped","ranks":[256]}"#,
            &store,
            &ProfileCache::new(),
            1,
        )
        .unwrap();
        let q = &batch.queries[0];
        assert!(q.answers[0].contains("wrap failed"), "{:?}", q.answers);
        assert!(!query_failed(&q.parse_error, &q.stats));

        let m = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .backend(MatrixBackend::Stock(LoaderBackend::future()))
            .wrap_states(WrapState::all())
            .rank_points([256usize]);
        let (report, stats) =
            run_matrix_incremental(&m, &ResultStore::in_memory(), &ProfileCache::new(), 1).unwrap();
        assert!(report.results.iter().any(|r| r.error.is_some()));
        assert_eq!(matrix_failures(&report, &stats), 0);
    }

    #[test]
    fn fail_frac_is_failed_over_attempted() {
        assert_eq!(Tally { attempted: 20, failed: 1 }.fail_frac(), 0.05);
        assert_eq!(Tally::default().fail_frac(), 1.0, "nothing attempted is no success");
    }

    #[test]
    fn the_sample_check_accepts_true_results_and_rejects_altered_ones() {
        let m = ExperimentMatrix::new()
            .workload(Pynamic::new(10))
            .distributions([depchaos_launch::ServiceDistribution::log_normal(0.5)])
            .replicates(3)
            .rank_points([256usize]);
        let profiles = ProfileCache::new();
        let (mut report, _) =
            run_matrix_incremental(&m, &ResultStore::in_memory(), &profiles, 1).unwrap();
        assert_eq!(resolve_sample(&m, &report, &profiles, 1), 0);
        report.results[0].series[0].1.time_to_launch_ns += 1;
        assert_eq!(resolve_sample(&m, &report, &profiles, 1), 1);
    }

    #[test]
    fn strip_id_removes_only_the_id() {
        let a = vec![r#"{"id":"q1","label":"x","q1":1}"#.to_string()];
        assert_eq!(strip_id(&a, "q1"), r#"{"id":"","label":"x","q1":1}"#);
    }
}
