//! The batch engine: simulate every pending (cell, rank point,
//! replicate) of a sweep in one pass, through the one row path the whole
//! crate shares.
//!
//! The sweep layers above this module — [`crate::sweep`],
//! [`crate::experiment`], and the incremental executor in `crates/serve`
//! — gather their pending simulations into a [`BatchPlan`]. A full
//! fig6-backends × dist × replicate matrix is thousands of rows over a
//! handful of segment schedules, and the plan solves each distinct piece
//! of cold-fleet work once:
//!
//! 1. **Gather.** Callers register each distinct [`ClassifiedStream`]
//!    once ([`BatchPlan::stream`]) and then push one *row* per pending
//!    simulation ([`BatchPlan::push`]). A row keeps only what solving and
//!    scattering it need: node count, fixed overheads, its solver class,
//!    and its kernel key. The per-stream facts every row shares (warm
//!    replay, local total, round-major verdict) were computed once by
//!    [`ClassifiedStream::classify`].
//!
//! 2. **Partition.** At push time the regime selector puts every row into
//!    one of four solver classes (see [`SolverClass`]).
//!
//! 3. **Solve kernels.** [`BatchPlan::execute`] collapses rows to unique
//!    *kernel jobs* — `(schedule, cold-node count, seed, fault, server
//!    topology)` tuples, with the seed normalised away for draw-free rows
//!    (deterministic service, no draw-taking fault), since the cold-fleet
//!    completion time is a pure function of that tuple. Replicate 0 of
//!    every rank point, every deterministic replicate, and every cell that
//!    only differs in overheads or warm fleet size all collapse onto the
//!    same kernel. Analytic kernels then advance **in lockstep over the
//!    shared segment schedule**: one outer loop per segment, one envelope
//!    update per live kernel, so the schedule is streamed once per batch
//!    instead of once per simulation. Heap and stochastic kernels replay
//!    the schedule through the event heap (`des::heap_schedule`).
//!
//! 4. **Scatter.** Each row combines its kernel's `(cold finish, peak
//!    queue, fault counts)` with the per-row arithmetic — warm-fleet
//!    replay, op accounting, spawn and base overheads.
//!
//! [`simulate_classified`](crate::simulate_classified) is the same path
//! for a single row, without a plan: it selects the row's class, solves
//! its kernel with the same solver (a lockstep of one live kernel, or the
//! heap), and scatters it — so a plan's rows are bit-identical to per-row
//! calls by construction, and a coalesced row allocates nothing.
//!
//! # The four solver classes
//!
//! | class | rows | cost per row |
//! |-------|------|--------------|
//! | [`SolverClass::Coalesced`] | no server segments (fully warm / serverless) | O(1) scatter arithmetic |
//! | [`SolverClass::Analytic`] | deterministic, ≥ 2 cold nodes, round-major schedule | amortised: one envelope update per (segment, kernel) |
//! | [`SolverClass::Stochastic`] | jittered service distribution | one heap replay per kernel (seeds never collapse) |
//! | [`SolverClass::Heap`] | deterministic but lone-cold-node or guard-violating, or any fault-injected row | one heap replay per kernel |
//!
//! A row pushed as `Analytic` can still *demote* to the heap mid-batch:
//! the envelope cap (`MAX_ENVELOPE_LINES` in [`crate::des`]) is only
//! discoverable during the recursion, so the lockstep hands a kernel
//! whose envelope overflows to the heap.
//!
//! # Exactness
//!
//! The batch engine is pinned against the independent `des::reference`
//! oracle property-by-property (`tests/des_equivalence.rs`,
//! `tests/server_topology.rs`), and the in-crate suites compare every
//! analytic kernel against the heap loop on the same row.

use std::collections::HashMap;

use crate::config::{AssignPolicy, LaunchConfig, LaunchResult, ServerTopology};
use crate::des::{self, ClassifiedStream, ClassifyParams};
use crate::fault::{FaultCounts, FaultModel};

/// Handle to a segment schedule registered with [`BatchPlan::stream`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamId(usize);

/// The solver class the regime selector put a row into at push time:
/// which of the bit-identical solvers is cheapest for this row's
/// (schedule, distribution, fault, cold-fleet) combination. The same
/// selector runs inside [`simulate_classified`](crate::simulate_classified).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolverClass {
    /// No server segments: warm or serverless rows coalesce to pure
    /// segment arithmetic — no kernel job at all.
    Coalesced,
    /// Deterministic service, ≥ 2 cold nodes, round-major schedule, and
    /// a hash-routed (or single-server) fleet: the max-plus line-envelope
    /// recursion over the busiest lane, advanced in lockstep across
    /// every kernel sharing the schedule. `LeastLoaded` multi-server
    /// rows demote to [`SolverClass::Heap`] — their routing depends on
    /// the event schedule.
    Analytic,
    /// Jittered service distribution: per-kernel heap replay with the
    /// per-(node, segment) draw streams. Distinct seeds never collapse.
    Stochastic,
    /// Event-heap fallback: a lone cold node (heap is cheaper than the
    /// envelope), a schedule that violates the round-major guard, or any
    /// fault-injected row — stalls and retries break the analytic
    /// symmetry, so every [`FaultModel`] other than `None` demotes here
    /// whatever the distribution.
    Heap,
}

/// One deduplicated unit of cold-fleet work: `cold_nodes` identical nodes
/// replaying a schedule against a `topology` fleet under `fault`, seeded
/// with `seed` when the row takes draws.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Kernel {
    pub(crate) cold_nodes: usize,
    /// Normalised to 0 when the row takes no draws (deterministic service
    /// *and* a draw-free fault model), so such rows differing only in seed
    /// share the kernel.
    pub(crate) seed: u64,
    pub(crate) fault: FaultModel,
    /// Server fleet shape — part of the dedup key: the same schedule and
    /// fleet over a different server count is different work.
    pub(crate) topology: ServerTopology,
}

/// A kernel's outcome: `(slowest cold finish, peak queue depth, fault
/// counts)`.
type KernelOut = (u64, usize, FaultCounts);

/// One pending simulation, reduced to what solving and scattering it
/// need.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    nodes: usize,
    /// Base plus serialized per-rank spawn overhead.
    overhead_ns: u64,
    class: SolverClass,
    kernel: Kernel,
}

impl Row {
    /// The regime selector: reduce `cfg` to a row over `stream` and pick
    /// its solver class. Panics if `cfg`'s latency calibration differs
    /// from the stream's classification.
    #[inline]
    pub(crate) fn of(stream: &ClassifiedStream, cfg: &LaunchConfig) -> Row {
        assert_eq!(
            stream.params(),
            ClassifyParams::of(cfg),
            "ClassifiedStream reused under a different latency calibration; reclassify"
        );
        let nodes = cfg.nodes();
        // With a broadcast cache only node 0 pays the cold stream; the
        // others see every op warm.
        let cold_nodes = if cfg.broadcast_cache { 1 } else { nodes };
        // Hash-routed lanes are independent single-server systems, so the
        // envelope runs over the busiest lane; schedule-dependent
        // `LeastLoaded` routing never qualifies. A one-node lane needs no
        // round-major guard.
        let servers = cfg.topology.servers.max(1);
        let analytic_topology = servers == 1 || cfg.topology.assign == AssignPolicy::HashByNode;
        let class = if stream.server_ops() == 0 {
            // No server segments: no stall, loss, or straggler can
            // manifest either, so faulted rows stay coalesced too.
            SolverClass::Coalesced
        } else if !cfg.fault.is_none() {
            SolverClass::Heap
        } else if !cfg.service_dist.is_deterministic() {
            SolverClass::Stochastic
        } else if cold_nodes > 1
            && analytic_topology
            && (cold_nodes.div_ceil(servers) == 1 || stream.round_major())
        {
            SolverClass::Analytic
        } else {
            SolverClass::Heap
        };
        let takes_draws = !cfg.service_dist.is_deterministic() || cfg.fault.takes_draws();
        Row {
            nodes,
            overhead_ns: cfg.base_overhead_ns
                + cfg.per_rank_overhead_ns * cfg.ranks_per_node.min(cfg.ranks) as u64,
            class,
            kernel: Kernel {
                cold_nodes,
                seed: if takes_draws { cfg.seed } else { 0 },
                fault: cfg.fault,
                topology: cfg.topology,
            },
        }
    }

    /// Solve this row alone: its kernel (if any) through
    /// [`solve_kernels`], then the scatter.
    #[inline]
    pub(crate) fn simulate(&self, stream: &ClassifiedStream) -> LaunchResult {
        let mut out = None;
        if self.class != SolverClass::Coalesced {
            let job = Job { id: 0, kernel: self.kernel, class: self.class };
            solve_kernels(stream, &[job], |_, o| out = Some(o));
        }
        self.scatter(stream, out)
    }

    /// The scatter: combine the cold fleet's outcome — the row's kernel,
    /// or for a coalesced row one local replay — with the warm fleet, the
    /// op accounting, and the overheads.
    #[inline]
    fn scatter(&self, stream: &ClassifiedStream, kernel: Option<KernelOut>) -> LaunchResult {
        let cold_nodes = self.kernel.cold_nodes;
        let warm_nodes = self.nodes - cold_nodes;
        // Warm nodes never interact with the server and replay identical
        // streams: one analytic replay covers them all.
        let warm_done_ns = if warm_nodes > 0 { stream.warm_replay_ns() } else { 0 };
        let (cold_done_ns, peak_queue_depth, fc) =
            kernel.unwrap_or((stream.local_total_ns(), 0, FaultCounts::default()));
        LaunchResult {
            time_to_launch_ns: self.overhead_ns + cold_done_ns.max(warm_done_ns),
            nodes: self.nodes,
            server_ops: cold_nodes as u64 * stream.server_ops(),
            // Every cold node consumes the same local-class ops regardless
            // of how the server queue interleaves them.
            local_ops: warm_nodes as u64 * stream.len() + cold_nodes as u64 * stream.n_local(),
            peak_queue_depth,
            retries_issued: fc.retries,
            timeouts_hit: fc.timeouts,
            max_backoff_ns: fc.max_backoff_ns,
            slowed_nodes: fc.slowed_nodes,
        }
    }
}

/// A kernel to solve, with the id its outcome is reported under.
#[derive(Debug, Clone, Copy)]
struct Job {
    id: usize,
    kernel: Kernel,
    class: SolverClass,
}

/// The kernel solver: every job over `stream`, reported through
/// `done(id, outcome)`. Analytic jobs advance through the envelope recursion
/// in lockstep; the rest — and any job whose envelope overflows the line
/// cap — replay through the event heap.
///
/// # Why the envelope is exact
///
/// Every node issues segment 0 at the same instant, so the heap serves
/// round 0 in node order, and completions within a round are the Lindley
/// recursion `D(i,k) = max(D(i-1,k), A(i,k)) + s_k` whose unrolled
/// solution is a **max-plus envelope of lines in the node index**: round 0
/// is the single line `a₀ + (i+1)·s₀`. Each next round keeps the lines
/// steeper than `s_k` (arrival-paced nodes, shifted by the inter-op gap
/// and one service), folds the flatter ones into the server-paced chain
/// line of slope `s_k`, and the envelope never grows beyond one line per
/// distinct service time. The slowest finish is the envelope at
/// `i = N-1` plus the response/tail time, and the peak queue depth is
/// exactly the cold-node count: from the first pop until the first node
/// retires, every node keeps one outstanding request in the calendar. The
/// recursion assumes round-major service, which the selector checked
/// (`ClassifiedStream::round_major`). Under an S-lane `HashByNode` fleet
/// the lanes are independent single-server systems over the same
/// schedule, so the envelope runs over the busiest lane — `ceil(cold / S)`
/// nodes — which finishes last (adding a node to a FIFO lane never speeds
/// it up).
fn solve_kernels(stream: &ClassifiedStream, jobs: &[Job], mut done: impl FnMut(usize, KernelOut)) {
    let segs = stream.server_segments();
    let half_rtt = stream.params().rtt_ns / 2;
    // One envelope per analytic job, over its busiest lane; a job whose
    // envelope overflows the line cap is left with an empty one and
    // replays through the heap instead.
    let mut live: Vec<_> = jobs
        .iter()
        .filter(|job| job.class == SolverClass::Analytic)
        .map(|job| {
            let lane_nodes = job.kernel.cold_nodes.div_ceil(job.kernel.topology.servers.max(1));
            (job, (lane_nodes - 1) as u64, vec![des::envelope_seed(segs, half_rtt)])
        })
        .collect();
    if !live.is_empty() {
        let mut scratch: Vec<(u64, u64)> = Vec::with_capacity(8);
        for j in 1..segs.len() {
            let (s, g_prev) = (segs[j].service_ns, des::seg_gap(&segs[j - 1], &segs[j], half_rtt));
            for (_, last, lines) in live.iter_mut().filter(|(_, _, lines)| !lines.is_empty()) {
                if !des::envelope_round(lines, &mut scratch, s, g_prev, *last) {
                    lines.clear();
                }
            }
        }
    }
    for (job, last, lines) in &live {
        done(
            job.id,
            if lines.is_empty() {
                des::heap_schedule(stream, &job.kernel)
            } else {
                let finish = des::envelope_finish(lines, stream, half_rtt, *last);
                (finish, job.kernel.cold_nodes, FaultCounts::default())
            },
        );
    }
    for job in jobs.iter().filter(|job| job.class != SolverClass::Analytic) {
        done(job.id, des::heap_schedule(stream, &job.kernel));
    }
}

/// A batch of pending simulations over shared segment schedules. See the
/// module docs for the execution model. Its callers are the replicate
/// driver [`run_adaptive_units`](crate::run_adaptive_units) — one plan per
/// round, under every sweep, [`ExperimentMatrix::run`](crate::ExperimentMatrix::run)
/// and `crates/serve`'s incremental executor — and
/// [`sweep_paired`](crate::sweep_paired). A plan executes sequentially on
/// the caller's thread.
///
/// Row results come back from [`BatchPlan::execute`] in push order and
/// are bit-identical to calling
/// [`simulate_classified`](crate::simulate_classified) per row.
pub struct BatchPlan<'a> {
    streams: Vec<&'a ClassifiedStream>,
    /// Pushed rows with the index of their stream.
    rows: Vec<(usize, Row)>,
}

impl<'a> BatchPlan<'a> {
    pub fn new() -> Self {
        BatchPlan { streams: Vec::new(), rows: Vec::new() }
    }

    /// Register a classified stream. Registering the same
    /// `&ClassifiedStream` again (by address) is deduplicated and returns
    /// the original id.
    pub fn stream(&mut self, stream: &'a ClassifiedStream) -> StreamId {
        if let Some(i) = self.streams.iter().position(|s| std::ptr::eq(*s, stream)) {
            return StreamId(i);
        }
        self.streams.push(stream);
        StreamId(self.streams.len() - 1)
    }

    /// Push one pending simulation of `stream` under `cfg`, partitioning
    /// it into its solver class. Returns the row index ([`execute`]
    /// returns results in push order).
    ///
    /// Panics like [`simulate_classified`](crate::simulate_classified) if
    /// `cfg`'s latency calibration differs from the stream's
    /// classification.
    ///
    /// [`execute`]: BatchPlan::execute
    pub fn push(&mut self, stream: StreamId, cfg: &LaunchConfig) -> usize {
        self.rows.push((stream.0, Row::of(self.streams[stream.0], cfg)));
        self.rows.len() - 1
    }

    /// Rows gathered so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Row counts per solver class, in `[Coalesced, Analytic,
    /// Stochastic, Heap]` order — push-time partitioning, before any
    /// envelope-cap demotions during [`execute`](BatchPlan::execute).
    pub fn class_counts(&self) -> [usize; 4] {
        let mut counts = [0usize; 4];
        for (_, row) in &self.rows {
            let i = match row.class {
                SolverClass::Coalesced => 0,
                SolverClass::Analytic => 1,
                SolverClass::Stochastic => 2,
                SolverClass::Heap => 3,
            };
            counts[i] += 1;
        }
        counts
    }

    /// Solve every row: dedup to kernel jobs, solve each stream's jobs
    /// (analytic ones in lockstep), scatter per-row results. Results are
    /// in push order, each bit-identical to
    /// [`simulate_classified`](crate::simulate_classified) on the row's
    /// (stream, cfg).
    pub fn execute(&self) -> Vec<LaunchResult> {
        // Collapse rows to unique kernel jobs, grouped by stream; coalesced
        // rows carry no kernel.
        let mut jobs: Vec<Vec<Job>> = vec![Vec::new(); self.streams.len()];
        let mut index: HashMap<(usize, Kernel), usize> = HashMap::new();
        let row_kernel: Vec<Option<usize>> = self
            .rows
            .iter()
            .map(|&(si, row)| {
                (row.class != SolverClass::Coalesced).then(|| {
                    let next = index.len();
                    *index.entry((si, row.kernel)).or_insert_with(|| {
                        jobs[si].push(Job { id: next, kernel: row.kernel, class: row.class });
                        next
                    })
                })
            })
            .collect();
        let mut solved: Vec<KernelOut> = vec![(0, 0, FaultCounts::default()); index.len()];
        for (stream, jobs) in self.streams.iter().zip(&jobs) {
            solve_kernels(stream, jobs, |id, out| solved[id] = out);
        }
        self.rows
            .iter()
            .zip(row_kernel)
            .map(|(&(si, row), ki)| row.scatter(self.streams[si], ki.map(|k| solved[k])))
            .collect()
    }
}

impl Default for BatchPlan<'_> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ServiceDistribution;
    use crate::des::reference::simulate_launch_reference;
    use crate::des::simulate_classified;
    use depchaos_vfs::strace::{Op, Outcome, StraceLog, Syscall};

    /// The plan's rows against the reference oracle and against per-call
    /// `simulate_classified` (the one-row path, which skips the kernel
    /// dedup and the multi-kernel lockstep).
    fn assert_rows(plan: &BatchPlan, expected: &[LaunchResult], cfgs: &[LaunchConfig]) {
        let got = plan.execute();
        assert_eq!(got, expected);
        for (&(si, _), (row, cfg)) in plan.rows.iter().zip(got.iter().zip(cfgs)) {
            assert_eq!(row, &simulate_classified(plan.streams[si], cfg));
        }
    }

    fn log_of(spec: &[(Op, u64)]) -> StraceLog {
        let mut log = StraceLog::new();
        for &(op, cost_ns) in spec {
            log.push(Syscall::new(op, "/p", Outcome::Ok, cost_ns));
        }
        log
    }

    fn cfg_with(dist: ServiceDistribution, ranks: usize, broadcast: bool) -> LaunchConfig {
        let mut cfg = LaunchConfig::default().with_ranks(ranks);
        cfg.service_dist = dist;
        cfg.broadcast_cache = broadcast;
        cfg
    }

    /// A mixed plan — two streams, all four solver classes — matches the
    /// oracle and per-call `simulate_classified` row for row.
    #[test]
    fn mixed_plan_matches_per_call_path() {
        let base = LaunchConfig::default();
        // Stream A: server-heavy (analytic / heap / stochastic rows).
        let ops_a = log_of(&[
            (Op::Stat, base.rtt_ns),
            (Op::Openat, base.rtt_ns * 2),
            (Op::Read, 4096),
            (Op::Stat, 10),
        ]);
        // Stream B: all-local (coalesced rows).
        let ops_b = log_of(&[(Op::Stat, 5), (Op::Stat, 7)]);

        let dists = ServiceDistribution::all();
        let streams: Vec<(ClassifiedStream, ClassifiedStream, LaunchConfig)> = dists
            .iter()
            .map(|&d| {
                let cfg = cfg_with(d, 1024, false);
                (
                    ClassifiedStream::classify(&ops_a, &cfg),
                    ClassifiedStream::classify(&ops_b, &cfg),
                    cfg,
                )
            })
            .collect();

        let mut plan = BatchPlan::new();
        let (mut expected, mut cfgs) = (Vec::new(), Vec::new());
        for (sa, sb, cfg) in &streams {
            let ia = plan.stream(sa);
            let ib = plan.stream(sb);
            for &(ranks, broadcast, seed) in
                &[(64usize, false, 1u64), (64, true, 1), (4096, false, 2), (128, false, 1)]
            {
                let mut c = cfg.clone().with_ranks(ranks).with_seed(seed);
                c.broadcast_cache = broadcast;
                plan.push(ia, &c);
                expected.push(simulate_launch_reference(&ops_a, &c));
                plan.push(ib, &c);
                expected.push(simulate_launch_reference(&ops_b, &c));
                cfgs.extend([c.clone(), c]);
            }
        }
        assert_eq!(plan.len(), expected.len());
        let counts = plan.class_counts();
        assert_eq!(counts.iter().sum::<usize>(), plan.len());
        assert!(counts[0] > 0, "stream B rows coalesce: {counts:?}");
        assert!(counts[1] > 0, "multi-node deterministic rows are analytic: {counts:?}");
        assert!(counts[2] > 0, "jittered rows are stochastic: {counts:?}");
        assert!(counts[3] > 0, "broadcast deterministic rows fall back to the heap: {counts:?}");
        assert_rows(&plan, &expected, &cfgs);
    }

    /// Re-registering the same stream dedups; pushing a stream under a
    /// mismatched calibration panics like `simulate_classified`.
    #[test]
    fn stream_registration_dedups_by_address() {
        let ops = log_of(&[(Op::Stat, 10)]);
        let cfg = LaunchConfig::default();
        let stream = ClassifiedStream::classify(&ops, &cfg);
        let mut plan = BatchPlan::new();
        assert_eq!(plan.stream(&stream), plan.stream(&stream));
    }

    #[test]
    #[should_panic(expected = "different latency calibration")]
    fn mismatched_calibration_panics_at_push() {
        let ops = log_of(&[(Op::Stat, 10)]);
        let cfg = LaunchConfig::default();
        let stream = ClassifiedStream::classify(&ops, &cfg);
        let mut plan = BatchPlan::new();
        let id = plan.stream(&stream);
        let mut other = cfg;
        other.rtt_ns += 1;
        plan.push(id, &other);
    }

    /// Fault-injected rows demote to the heap class, replay through the
    /// fault hook, and still match the oracle row for row — seeds
    /// collapsing only for draw-free models.
    #[test]
    fn faulted_rows_match_per_call_path() {
        use crate::fault::FaultModel;
        let base = LaunchConfig::default();
        let ops = log_of(&[(Op::Stat, base.rtt_ns), (Op::Openat, base.rtt_ns * 2)]);
        let faults = [
            FaultModel::None,
            FaultModel::ServerStall { at_ns: 1_000_000, duration_ns: 400_000_000 },
            FaultModel::RpcLoss {
                loss_milli: 200,
                timeout_ns: 2_000_000,
                backoff_base_ns: 500_000,
                max_retries: 4,
            },
            FaultModel::Stragglers { frac_milli: 300, slow_milli: 3000 },
        ];
        for dist in ServiceDistribution::all() {
            let cfg = cfg_with(dist, 1024, false);
            let stream = ClassifiedStream::classify(&ops, &cfg);
            let mut plan = BatchPlan::new();
            let id = plan.stream(&stream);
            let (mut expected, mut cfgs) = (Vec::new(), Vec::new());
            for fault in faults {
                for seed in [1u64, 99] {
                    let c = cfg.clone().with_seed(seed).with_fault(fault);
                    plan.push(id, &c);
                    expected.push(simulate_launch_reference(&ops, &c));
                    cfgs.push(c);
                }
            }
            assert_rows(&plan, &expected, &cfgs);
        }
    }

    /// Kernel dedup: rows differing only in overheads, warm fleet, or
    /// (deterministic) seed share one kernel, yet scatter distinct
    /// results.
    #[test]
    fn deduped_kernels_still_scatter_per_row_results() {
        let base = LaunchConfig::default();
        let ops = log_of(&[(Op::Stat, base.rtt_ns), (Op::Openat, base.rtt_ns)]);
        let stream = ClassifiedStream::classify(&ops, &base);
        let mut plan = BatchPlan::new();
        let id = plan.stream(&stream);
        let mut cfgs = Vec::new();
        for seed in [1u64, 99] {
            let mut c = base.clone().with_ranks(512).with_seed(seed);
            c.base_overhead_ns = seed * 1000;
            cfgs.push(c);
        }
        for c in &cfgs {
            plan.push(id, c);
        }
        let expected: Vec<LaunchResult> =
            cfgs.iter().map(|c| simulate_launch_reference(&ops, c)).collect();
        assert_rows(&plan, &expected, &cfgs);
        assert_ne!(expected[0].time_to_launch_ns, expected[1].time_to_launch_ns);
    }

    /// Topology joins the kernel key: rows over every fleet shape (and
    /// both routing policies) plan and scatter bit-identically to the
    /// per-call path, with `LeastLoaded` multi-server rows demoted to
    /// the heap class.
    #[test]
    fn topology_rows_match_per_call_path() {
        let base = LaunchConfig::default();
        let ops = log_of(&[(Op::Stat, base.rtt_ns), (Op::Openat, base.rtt_ns * 2)]);
        let tops = [
            ServerTopology::single(),
            ServerTopology::hash(2),
            ServerTopology::hash(8),
            ServerTopology::least_loaded(3),
        ];
        for dist in ServiceDistribution::all() {
            let cfg = cfg_with(dist, 2048, false);
            let stream = ClassifiedStream::classify(&ops, &cfg);
            let mut plan = BatchPlan::new();
            let id = plan.stream(&stream);
            let (mut expected, mut cfgs) = (Vec::new(), Vec::new());
            for top in tops {
                for ranks in [64usize, 2048] {
                    let c = cfg.clone().with_ranks(ranks).with_topology(top).with_seed(7);
                    plan.push(id, &c);
                    expected.push(simulate_launch_reference(&ops, &c));
                    cfgs.push(c);
                }
            }
            if dist.is_deterministic() {
                let counts = plan.class_counts();
                assert!(counts[1] > 0, "hash fleets stay analytic: {counts:?}");
                assert!(counts[3] > 0, "least-loaded fleets demote to the heap: {counts:?}");
            }
            assert_rows(&plan, &expected, &cfgs);
        }
    }
}
