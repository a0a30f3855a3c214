//! The four workloads and the generators that build their inputs from the
//! benchmark seed. The engine sees only what these functions produce.

use depchaos_launch::{
    AdaptiveControl, AssignPolicy, CachePolicy, ExperimentMatrix, FaultModel, LaunchConfig,
    MatrixBackend, ServerTopology, ServiceDistribution, WrapState, DEFAULT_REPLICATES,
};
use std::collections::HashSet;

use depchaos_vfs::StorageModel;
use depchaos_workloads::{Axom, Pynamic, Rocm, SplitMix};

/// Worker threads handed to every engine entry point that takes `jobs`.
/// Fixed rather than read from the host so that two commits measured on
/// the same machine run the same schedule; 2 is the core count of the
/// host the baseline was taken on.
pub const JOBS: usize = 2;

/// The seed the recorded output digests belong to. Under it the matrix
/// workloads are exactly the `depchaos-report` sections they copy.
pub const DEFAULT_SEED: u64 = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StochasticSweep,
    ProfileMatrix,
    WhatifStream,
    AdaptiveSweep,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StochasticSweep,
        Workload::ProfileMatrix,
        Workload::WhatifStream,
        Workload::AdaptiveSweep,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StochasticSweep => "stochastic_sweep",
            Workload::ProfileMatrix => "profile_matrix",
            Workload::WhatifStream => "whatif_stream",
            Workload::AdaptiveSweep => "adaptive_sweep",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// The base configuration every matrix derives its cells from: the
/// engine's calibration, with the experiment seed moved by the benchmark
/// seed (unchanged under [`DEFAULT_SEED`]).
fn base_config(seed: u64) -> LaunchConfig {
    let base = LaunchConfig::default();
    LaunchConfig { seed: base.seed ^ seed, ..base }
}

/// `stochastic_sweep`: the `fig6-queueing` section's matrix.
pub fn stochastic_sweep(seed: u64) -> ExperimentMatrix {
    ExperimentMatrix::new()
        .workload(Pynamic::new(150))
        .backend(MatrixBackend::glibc())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies([CachePolicy::Cold])
        .distributions(ServiceDistribution::all())
        .topologies([
            ServerTopology::single(),
            ServerTopology::hash(4),
            ServerTopology::least_loaded(4),
        ])
        .rank_points([512usize, 2048, 16 * 1024])
        .base_config(base_config(seed))
}

/// The stopping rule `adaptive_sweep` runs under — `depchaos-report
/// fig6-dist --adaptive 0.05`.
pub const ADAPTIVE: AdaptiveControl =
    AdaptiveControl { target_rel_milli: 50, min_k: 3, max_k: DEFAULT_REPLICATES, batch: 4 };

/// `adaptive_sweep`: the `fig6-dist` section's matrix under [`ADAPTIVE`].
pub fn adaptive_sweep(seed: u64) -> ExperimentMatrix {
    ExperimentMatrix::new()
        .workload(Pynamic::new(200))
        .workload(Axom::paper())
        .workload(Rocm::matched())
        .backend(MatrixBackend::glibc())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies([CachePolicy::Cold])
        .distributions(ServiceDistribution::all())
        .adaptive(ADAPTIVE)
        .base_config(base_config(seed))
}

/// `profile_matrix`: many distinct profile cells under the deterministic
/// server. Every cell is worth profiling: Pynamic at three sizes up to
/// the paper's 900, an Axom store stack whose package graph the seed
/// picks, and both ROCm module worlds, each under all four loader
/// backends (the future loader's unresolvable cells included).
pub fn profile_matrix(seed: u64) -> ExperimentMatrix {
    ExperimentMatrix::new()
        .workload(Pynamic::new(100))
        .workload(Pynamic::new(300))
        .workload(Pynamic::paper())
        .workload(Axom::new(7 ^ seed))
        .workload(Rocm::matched())
        .workload(Rocm::mixed())
        .backends(MatrixBackend::all())
        .storage(StorageModel::Nfs)
        .wrap_states(WrapState::all())
        .cache_policies(CachePolicy::all())
        .base_config(base_config(seed))
}

/// Queries in one `whatif_stream` pass.
pub const STREAM_QUERIES: usize = 1000;
/// Distinct cells written to the store during set-up.
pub const PREPOPULATED: usize = 120;
/// Share of stream queries that name a cell not seen before, in percent.
pub const NEW_CELL_PERCENT: usize = 20;

/// The inputs of one `whatif_stream` pass: JSONL request lines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WhatifInputs {
    /// Requests served into the store during set-up.
    pub prepopulate: Vec<String>,
    /// The measured stream, one request per `serve_batch` call.
    pub stream: Vec<String>,
}

/// A request's cell body: the line without its leading id field. Requests
/// with equal bodies name the same cell and must get the same answers.
pub fn cell_of(line: &str) -> &str {
    let rest = line.split_once(',').map_or(line, |(_, rest)| rest);
    rest.strip_suffix('}').unwrap_or(rest)
}

const BASES: [&str; 8] = [
    "pynamic-20",
    "pynamic-50",
    "pynamic-100",
    "pynamic-rpath-50",
    "axom-7",
    "rocm-4.5",
    "rocm-mixed",
    "emacs",
];
/// Rank points a query asks for: none, which is the engine's default of
/// 512/1024/2048, or one of the default's points.
const RANK_SETS: [Option<&str>; 4] = [None, Some("512"), Some("1024"), Some("2048")];
/// Fleet size and routing; one server is spelled with hash routing only,
/// since one server under either policy is the same store cell.
const TOPOLOGIES: [(usize, AssignPolicy); 6] = [
    (1, AssignPolicy::HashByNode),
    (1, AssignPolicy::HashByNode),
    (2, AssignPolicy::HashByNode),
    (2, AssignPolicy::LeastLoaded),
    (4, AssignPolicy::HashByNode),
    (4, AssignPolicy::LeastLoaded),
];

/// `n` picks of `values`, each value used equally often (to within one),
/// in shuffled order.
fn balanced<T: Clone>(rng: &mut SplitMix, values: &[T], n: usize) -> Vec<T> {
    let mut v: Vec<T> = (0..n).map(|i| values[i % values.len()].clone()).collect();
    shuffle(rng, &mut v);
    v
}

fn shuffle<T>(rng: &mut SplitMix, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// `n` distinct cell bodies not in `seen` (recorded there), in which every
/// axis takes each of its values equally often. Values are spelled by the
/// engine's own `name()` functions, so the request parser accepts them.
/// The replicate count is no axis: every request leaves it to the engine's
/// default, as a request written by a user does.
fn cells(rng: &mut SplitMix, n: usize, seen: &mut HashSet<String>) -> Vec<String> {
    let mut axis = |xs: Vec<String>| balanced(rng, &xs, n);
    let dists = [
        ServiceDistribution::Deterministic,
        ServiceDistribution::Deterministic,
        ServiceDistribution::uniform_jitter(0.25),
        ServiceDistribution::log_normal(0.5),
    ];
    let faults = [
        FaultModel::None,
        FaultModel::None,
        FaultModel::None,
        FaultModel::ServerStall { at_ns: 1_000_000_000, duration_ns: 2_000_000_000 },
        FaultModel::RpcLoss {
            loss_milli: 50,
            timeout_ns: 1_000_000_000,
            backoff_base_ns: 250_000_000,
            max_retries: 5,
        },
        FaultModel::Stragglers { frac_milli: 250, slow_milli: 4000 },
    ];
    let axes: Vec<Vec<String>> = vec![
        axis(BASES.iter().map(|b| b.to_string()).collect()),
        axis(MatrixBackend::all().iter().map(|b| b.name().to_string()).collect()),
        axis(WrapState::all().iter().map(|w| w.name().to_string()).collect()),
        axis(CachePolicy::all().iter().map(|c| c.name().to_string()).collect()),
        axis(dists.iter().map(|d| d.name()).collect()),
        axis(faults.iter().map(|f| f.name()).collect()),
        axis(
            TOPOLOGIES
                .iter()
                .map(|(n, a)| format!("\"servers\":{n},\"assign\":\"{}\"", a.name()))
                .collect(),
        ),
    ];
    let rank_sets = balanced(rng, &[0, 1, 2, 3], n);
    let mut out = Vec::with_capacity(n);
    'cell: for (i, first) in rank_sets.into_iter().enumerate() {
        // A repeated combination moves on to the next rank set.
        for shift in 0..RANK_SETS.len() {
            let ranks = RANK_SETS[(first + shift) % RANK_SETS.len()]
                .map_or(String::new(), |r| format!(",\"ranks\":[{r}]"));
            let cell = format!(
                "\"base\":\"{}\",\"backend\":\"{}\",\"storage\":\"nfs\",\"wrap\":\"{}\",\
                 \"cache\":\"{}\",\"dist\":\"{}\",\"fault\":\"{}\",{}{ranks}",
                axes[0][i], axes[1][i], axes[2][i], axes[3][i], axes[4][i], axes[5][i], axes[6][i],
            );
            if seen.insert(cell.clone()) {
                out.push(cell);
                continue 'cell;
            }
        }
        panic!("the catalog repeats a cell under every rank set");
    }
    out
}

/// The seed of the cell catalog. Every `whatif_stream` run draws on the
/// same cells, so that a run's work does not depend on its seed; cells'
/// costs differ by orders of magnitude, and a seed-drawn catalog would make
/// the seed, not the code, move `wall_s`.
const CATALOG_SEED: u64 = 0x005e_ed0f_5e4e;

/// The `whatif_stream` inputs for `seed`. Set-up stores the catalog's
/// [`PREPOPULATED`] cells. The stream is a closed loop of
/// [`STREAM_QUERIES`] queries, of which exactly [`NEW_CELL_PERCENT`]% name
/// one of the catalog's other cells, each for the first time and in
/// catalog order; the rest repeat a cell already stored, in set-up or
/// earlier in the stream. The seed orders the set-up requests, places the
/// new queries in the stream, and draws the repeats. The new cells keep
/// their order so that the same queries pay each world's first profiling
/// run under every seed, which keeps the tail latency a property of the
/// code rather than of the seed.
pub fn whatif(seed: u64) -> WhatifInputs {
    let n_new = STREAM_QUERIES * NEW_CELL_PERCENT / 100;
    let mut design = SplitMix::new(CATALOG_SEED);
    let mut seen = HashSet::new();
    let mut known = cells(&mut design, PREPOPULATED, &mut seen);
    let fresh = cells(&mut design, n_new, &mut seen);

    let mut rng = SplitMix::new(seed);
    shuffle(&mut rng, &mut known);
    let prepopulate =
        known.iter().enumerate().map(|(i, c)| format!("{{\"id\":\"p{i}\",{c}}}")).collect();
    let mut is_new: Vec<bool> = (0..STREAM_QUERIES).map(|i| i < n_new).collect();
    shuffle(&mut rng, &mut is_new);
    let mut fresh = fresh.into_iter();
    let mut stream = Vec::with_capacity(STREAM_QUERIES);
    for (i, new) in is_new.into_iter().enumerate() {
        let cell = if new {
            let c = fresh.next().expect("one fresh cell per new query");
            known.push(c.clone());
            c
        } else {
            known[rng.below(known.len() as u64) as usize].clone()
        };
        stream.push(format!("{{\"id\":\"q{i}\",{cell}}}"));
    }
    WhatifInputs { prepopulate, stream }
}

#[cfg(test)]
mod tests {
    use super::*;
    use depchaos_serve::WhatIfRequest;

    #[test]
    fn the_same_seed_gives_byte_identical_inputs() {
        assert_eq!(whatif(DEFAULT_SEED), whatif(DEFAULT_SEED));
        assert_eq!(whatif(12345), whatif(12345));
        for w in [stochastic_sweep, adaptive_sweep, profile_matrix] {
            assert_eq!(format!("{:?}", w(9).expand()), format!("{:?}", w(9).expand()));
        }
    }

    #[test]
    fn a_held_out_seed_gives_different_inputs() {
        assert_ne!(whatif(DEFAULT_SEED), whatif(424242));
        assert_ne!(
            stochastic_sweep(DEFAULT_SEED).base().seed,
            stochastic_sweep(424242).base().seed
        );
        assert_ne!(
            format!("{:?}", profile_matrix(DEFAULT_SEED).expand()),
            format!("{:?}", profile_matrix(424242).expand())
        );
    }

    #[test]
    fn every_generated_request_parses_and_builds_a_matrix() {
        for seed in [DEFAULT_SEED, 424242] {
            let inputs = whatif(seed);
            for line in inputs.prepopulate.iter().chain(&inputs.stream) {
                let req = WhatIfRequest::parse(line).unwrap_or_else(|e| panic!("{line}: {e}"));
                req.matrix().unwrap_or_else(|e| panic!("{line}: {e}"));
            }
        }
    }

    #[test]
    fn requests_keep_the_engine_defaults_for_replicates_and_rank_points() {
        let inputs = whatif(DEFAULT_SEED);
        let reqs: Vec<WhatIfRequest> =
            inputs.stream.iter().map(|l| WhatIfRequest::parse(l).unwrap()).collect();
        assert!(reqs.iter().all(|r| r.replicates == DEFAULT_REPLICATES));
        let default = [512, 1024, 2048];
        assert!(reqs.iter().all(|r| r.ranks.iter().all(|n| default.contains(n))));
        assert!(reqs.iter().any(|r| r.ranks == default));
    }

    #[test]
    fn the_stream_mixes_new_cells_with_repeats() {
        let inputs = whatif(DEFAULT_SEED);
        let mut seen: HashSet<&str> = inputs.prepopulate.iter().map(|l| cell_of(l)).collect();
        assert_eq!(seen.len(), PREPOPULATED);
        let new = inputs.stream.iter().filter(|l| seen.insert(cell_of(l))).count();
        assert_eq!(new, STREAM_QUERIES * NEW_CELL_PERCENT / 100);
    }

    #[test]
    fn the_matrix_workloads_have_their_documented_shapes() {
        assert_eq!(stochastic_sweep(DEFAULT_SEED).expand().len(), 2 * 3 * 3);
        assert_eq!(adaptive_sweep(DEFAULT_SEED).expand().len(), 3 * 2 * 3);
        assert_eq!(profile_matrix(DEFAULT_SEED).expand().len(), 6 * 4 * 2 * 2);
        assert_eq!(stochastic_sweep(DEFAULT_SEED).base().seed, LaunchConfig::default().seed);
    }
}
