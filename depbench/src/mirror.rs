//! The traced run: `run_matrix_incremental`, `run_adaptive_units` and
//! `serve_batch` re-enacted phase by phase through the engine's public
//! functions, with a span around every call into a layer. The untraced run
//! calls the real entry points; the benchmark requires both to produce
//! equal results, so the mirror cannot drift from what it times.

use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use depchaos_core::{wrap, ShrinkwrapOptions};
use depchaos_launch::{
    mg1_bounds, profile_load_checked, replicate_seed, scenario_seed, validate_against_mg1,
    AdaptiveControl, AdaptiveUnit, BatchPlan, CellProfile, ClassifiedStream, ExperimentMatrix,
    LaunchConfig, LaunchResult, LaunchStats, MatrixBackend, ProfileCache, Scenario, ScenarioResult,
    ScenarioSpec, SweepReport, Welford,
};
use depchaos_loader::LdCache;
use depchaos_serve::{
    CellIdentity, CellOutcome, CellRecord, ExecStats, ProfileSummary, ResultStore, ScenarioKey,
    WhatIfRequest, ENGINE_EPOCH,
};
use depchaos_vfs::{StorageModel, StraceLog, Vfs};
use depchaos_workloads::Workload;

use crate::trace::Trace;

/// Work counted at the layer boundaries of one traced pass.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    pub profile_cells: u64,
    pub profile_syscalls: u64,
    pub classify_streams: u64,
    pub classify_segments: u64,
    pub plan_rows: u64,
    /// `BatchPlan::class_counts` order: coalesced, analytic, stochastic, heap.
    pub plan_classes: [u64; 4],
    pub execute_server_ops: u64,
    pub queueing_checks: u64,
    pub queueing_violations: u64,
    pub adaptive_sims: u64,
    /// Replicate sims the same units would take at fixed `max_k`.
    pub adaptive_fixed_sims: u64,
    pub key_count: u64,
    pub store_lookups: u64,
    pub store_hits: u64,
    pub exec_cold_cells: u64,
    pub exec_warm_hits: u64,
}

/// One profiling call a pool worker made, and the syscalls of the cell it
/// profiled (`None` when another call had already profiled it).
struct PoolCall {
    start_ns: u64,
    end_ns: u64,
    thread: u32,
    profiled: Option<u64>,
}

struct Miss {
    scenario: usize,
    ranks: usize,
    key: ScenarioKey,
}

struct Prep {
    spec: ScenarioSpec,
    cfg: LaunchConfig,
    outcome: Result<(Arc<CellProfile>, Arc<ClassifiedStream>), String>,
    panicked: bool,
}

fn panic_msg(e: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn takes_draws(cfg: &LaunchConfig) -> bool {
    !cfg.service_dist.is_deterministic() || cfg.fault.takes_draws()
}

fn syscalls(cell: &CellProfile) -> u64 {
    [&cell.plain, &cell.wrapped]
        .iter()
        .filter_map(|o| o.as_ref().ok())
        .map(|p| p.log.len() as u64)
        .sum()
}

/// `run_matrix_incremental`, traced.
pub fn run_matrix(
    matrix: &ExperimentMatrix,
    store: &ResultStore,
    profiles: &ProfileCache,
    jobs: usize,
    t: &mut Trace,
    c: &mut Counts,
) -> std::io::Result<(SweepReport, ExecStats)> {
    t.span("exec", |t| run_matrix_inner(matrix, store, profiles, jobs, t, c))
}

fn run_matrix_inner(
    matrix: &ExperimentMatrix,
    store: &ResultStore,
    profiles: &ProfileCache,
    jobs: usize,
    t: &mut Trace,
    c: &mut Counts,
) -> std::io::Result<(SweepReport, ExecStats)> {
    let scenarios = matrix.expand();
    let rank_points = matrix.effective_rank_points();
    let replicates = matrix.replicate_count();
    let base = matrix.base();
    let profiled_before = profiles.computed();

    // Phase 1: address every cell and split warm from cold.
    let mut warm: HashMap<ScenarioKey, CellRecord> = HashMap::new();
    let mut misses: Vec<Miss> = Vec::new();
    let mut keys: Vec<Vec<ScenarioKey>> = Vec::with_capacity(scenarios.len());
    for (i, s) in scenarios.iter().enumerate() {
        let spec = s.spec();
        let mut cell_keys = Vec::with_capacity(rank_points.len());
        for &ranks in &rank_points {
            let key = t.span("key", |_| {
                CellIdentity {
                    spec: &spec,
                    ranks,
                    replicates,
                    adaptive: matrix.adaptive_control(),
                    base,
                }
                .key()
            });
            c.key_count += 1;
            cell_keys.push(key);
            c.store_lookups += 1;
            match t.span("store.get", |_| store.get(key)) {
                Some(rec) => {
                    c.store_hits += 1;
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
    c.exec_warm_hits += warm_hits as u64;
    c.exec_cold_cells += cold_cells as u64;

    // Phase 2a: profile every unique cold cell on a pool of `jobs` workers.
    let mut cold_scenarios: Vec<usize> = Vec::new();
    for m in &misses {
        if cold_scenarios.last() != Some(&m.scenario) {
            cold_scenarios.push(m.scenario);
        }
    }
    let mut cold_cell_scenarios: Vec<&Scenario> = Vec::new();
    let mut seen_cells = HashSet::new();
    for &i in &cold_scenarios {
        if seen_cells.insert(scenarios[i].cell_key()) {
            cold_cell_scenarios.push(&scenarios[i]);
        }
    }
    let workers = jobs.max(1).min(cold_cell_scenarios.len().max(1));
    let profile_cell = |s: &Scenario| {
        catch_unwind(AssertUnwindSafe(|| {
            profiles.get_or_profile_counted(s.workload.as_ref(), &s.backend, s.storage)
        }))
    };
    if !cold_cell_scenarios.is_empty() {
        let done: Mutex<Vec<PoolCall>> = Mutex::new(Vec::new());
        t.span("pool", |t| {
            let tr: &Trace = t;
            let work = |thread: u32, s: &Scenario| {
                let start_ns = tr.now_ns();
                let r = profile_cell(s);
                let end_ns = tr.now_ns();
                let profiled = match &r {
                    Ok((cell, true)) => Some(syscalls(cell)),
                    _ => None,
                };
                done.lock().expect("no worker panics holding the call list").push(PoolCall {
                    start_ns,
                    end_ns,
                    thread,
                    profiled,
                });
            };
            if workers <= 1 {
                for s in &cold_cell_scenarios {
                    work(0, s);
                }
            } else {
                let next = AtomicUsize::new(0);
                std::thread::scope(|sc| {
                    for w in 0..workers {
                        let (work, next, cells) = (&work, &next, &cold_cell_scenarios);
                        sc.spawn(move || loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(s) = cells.get(i) else { break };
                            work(w as u32 + 1, s);
                        });
                    }
                });
            }
            for call in done.into_inner().expect("workers joined") {
                t.adopt("profile", call.start_ns, call.end_ns, call.thread);
                if let Some(n) = call.profiled {
                    c.profile_cells += 1;
                    c.profile_syscalls += n;
                }
            }
        });
    }

    // Phase 2b: per cold scenario, derive the config and classify once.
    let mut preps: HashMap<usize, Prep> = HashMap::new();
    for &i in &cold_scenarios {
        let s = &scenarios[i];
        let spec = s.spec();
        let mut cfg = s.cache.apply(base.clone());
        cfg.service_dist = s.dist;
        cfg.fault = s.fault;
        cfg.topology = s.topology;
        cfg.seed = scenario_seed(base.seed, &spec.label());
        let looked_up = t.span("profile", |_| profile_cell(s));
        let (outcome, panicked) = match looked_up {
            Ok((cell, _)) => (
                match cell.outcome(s.wrap) {
                    Ok(p) => {
                        let before = profiles.classified_computed();
                        let stream = t.span("classify", |_| {
                            profiles.classified(&cell.key, s.wrap, &p.log, &cfg)
                        });
                        if profiles.classified_computed() > before {
                            c.classify_streams += 1;
                            c.classify_segments += stream.server_ops();
                        }
                        Ok((Arc::clone(&cell), stream))
                    }
                    Err(e) => Err(e.clone()),
                },
                false,
            ),
            Err(e) => (Err(format!("panic in profiling: {}", panic_msg(e))), true),
        };
        preps.insert(i, Prep { spec, cfg, outcome, panicked });
    }

    // Phase 2c: simulate the cold backlog.
    let miss_reps: Vec<Vec<LaunchResult>> = match matrix.adaptive_control() {
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
            let mut per_unit = t.span("adaptive", |t| adaptive_units(&units, ctl, t, c));
            unit_of
                .iter()
                .map(|u| u.map(|i| std::mem::take(&mut per_unit[i])).unwrap_or_default())
                .collect()
        }
        None => {
            let (plan, miss_rows) = t.span("plan", |_| {
                let mut plan = BatchPlan::new();
                let mut miss_rows: Vec<usize> = Vec::with_capacity(misses.len());
                for m in &misses {
                    let prep = &preps[&m.scenario];
                    let Ok((_, stream)) = &prep.outcome else {
                        miss_rows.push(0);
                        continue;
                    };
                    let id = plan.stream(stream);
                    let k = if takes_draws(&prep.cfg) { replicates.max(1) } else { 1 };
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
                (plan, miss_rows)
            });
            count_plan(&plan, c);
            let rows = t.span("execute", |_| plan.execute());
            c.execute_server_ops += rows.iter().map(|l| l.server_ops).sum::<u64>();
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

    // Phase 3: scatter into records, check each against its queueing
    // envelope, persist.
    let mut panics = 0usize;
    for (m, reps) in misses.iter().zip(&miss_reps) {
        let prep = &preps[&m.scenario];
        let (profile, error, outcome) = match &prep.outcome {
            Ok((cell, stream)) => {
                let p = cell.outcome(prep.spec.wrap).as_ref().expect("prep mirrors the cell");
                let mut samples: Vec<u64> = reps.iter().map(|l| l.time_to_launch_ns).collect();
                let stats = LaunchStats::from_samples(&mut samples);
                let queueing = t.span("queueing", |_| {
                    let b = mg1_bounds(stream, &prep.cfg.clone().with_ranks(m.ranks));
                    validate_against_mg1(&b, &stats)
                });
                c.queueing_checks += 1;
                c.queueing_violations += u64::from(!queueing.within);
                let summary = ProfileSummary {
                    stat_openat: p.stat_openat,
                    misses: p.misses,
                    complete: p.complete,
                    unresolved: p.unresolved,
                };
                (summary, None, Some(CellOutcome { result: reps[0], stats, queueing }))
            }
            Err(e) => (
                ProfileSummary { stat_openat: 0, misses: 0, complete: false, unresolved: 0 },
                Some(e.clone()),
                None,
            ),
        };
        let rec = CellRecord {
            key: m.key,
            epoch: ENGINE_EPOCH,
            label: prep.spec.label(),
            ranks: m.ranks,
            profile,
            error,
            outcome,
        };
        if prep.panicked {
            panics += 1;
        } else {
            t.span("store.put", |_| store.put(rec.clone()))?;
        }
        warm.insert(rec.key, rec);
    }

    // Phase 4: aggregate in matrix order.
    let results: Vec<ScenarioResult> = scenarios
        .iter()
        .zip(&keys)
        .map(|(s, cell_keys)| {
            let recs: Vec<&CellRecord> = cell_keys.iter().filter_map(|k| warm.get(k)).collect();
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

fn count_plan(plan: &BatchPlan<'_>, c: &mut Counts) {
    c.plan_rows += plan.len() as u64;
    for (acc, n) in c.plan_classes.iter_mut().zip(plan.class_counts()) {
        *acc += n as u64;
    }
}

/// One `ScenarioResult` from its per-rank-point records.
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

/// `run_adaptive_units`, traced: one plan and one execute span per round.
fn adaptive_units(
    units: &[AdaptiveUnit<'_>],
    ctl: AdaptiveControl,
    t: &mut Trace,
    c: &mut Counts,
) -> Vec<Vec<LaunchResult>> {
    let ctl = ctl.normalized();
    let mut out: Vec<Vec<LaunchResult>> = units.iter().map(|_| Vec::new()).collect();
    let mut acc: Vec<Welford> = units.iter().map(|_| Welford::new()).collect();
    let mut active: Vec<bool> = units.iter().map(|_| true).collect();
    loop {
        let (plan, pushed) = t.span("plan", |_| {
            let mut plan = BatchPlan::new();
            let mut pushed: Vec<(usize, usize)> = Vec::new();
            for (i, u) in units.iter().enumerate() {
                if !active[i] {
                    continue;
                }
                let id = plan.stream(u.stream);
                let done = out[i].len();
                let step = if takes_draws(&u.cfg) { ctl.batch.min(ctl.max_k - done) } else { 1 };
                for r in done..done + step {
                    plan.push(id, &u.cfg.clone().with_seed(replicate_seed(u.cfg.seed, r)));
                }
                pushed.push((i, step));
            }
            (plan, pushed)
        });
        if pushed.is_empty() {
            c.adaptive_fixed_sims += units
                .iter()
                .map(|u| if takes_draws(&u.cfg) { ctl.max_k as u64 } else { 1 })
                .sum::<u64>();
            return out;
        }
        count_plan(&plan, c);
        let rows = t.span("execute", |_| plan.execute());
        c.execute_server_ops += rows.iter().map(|l| l.server_ops).sum::<u64>();
        c.adaptive_sims += rows.len() as u64;
        let mut cursor = 0usize;
        for &(i, n) in &pushed {
            for l in &rows[cursor..cursor + n] {
                acc[i].push(l.time_to_launch_ns as f64);
                out[i].push(*l);
            }
            cursor += n;
            let k = out[i].len();
            active[i] = takes_draws(&units[i].cfg)
                && k < ctl.max_k
                && !(k >= ctl.min_k && ctl.precision_met(&acc[i]));
        }
    }
}

/// A served query as the benchmark compares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Served {
    pub answers: Vec<String>,
    pub stats: ExecStats,
    pub parse_error: Option<String>,
}

/// JSON string escaping, as the serve front door applies it.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// One `serve_batch` call on a single request line, traced.
pub fn serve_query(
    line: &str,
    store: &ResultStore,
    profiles: &ProfileCache,
    jobs: usize,
    t: &mut Trace,
    c: &mut Counts,
) -> std::io::Result<Served> {
    let parsed = t.span("requests.parse", |_| {
        WhatIfRequest::parse(line).and_then(|r| r.matrix().map(|m| (r, m)))
    });
    let (req, matrix) = match parsed {
        Ok(p) => p,
        Err(e) => {
            return Ok(Served {
                answers: Vec::new(),
                stats: ExecStats::default(),
                parse_error: Some(e),
            })
        }
    };
    let (sweep, stats) = run_matrix(&matrix, store, profiles, jobs, t, c)?;
    let answers = t.span("requests.format", |_| {
        let mut answers = Vec::new();
        for r in &sweep.results {
            let label = r.spec.label();
            if let Some(e) = &r.error {
                answers.push(format!(
                    "{{\"id\":\"{}\",\"label\":\"{}\",\"error\":\"{}\"}}",
                    esc(&req.id),
                    esc(&label),
                    esc(e)
                ));
                continue;
            }
            for &ranks in &sweep.rank_points {
                let (Some(l), Some(st), Some(q)) =
                    (r.result_at(ranks), r.stats_at(ranks), r.queueing_at(ranks))
                else {
                    continue;
                };
                answers.push(format!(
                    "{{\"id\":\"{}\",\"label\":\"{}\",\"ranks\":{ranks},\"launch_ns\":{},\
                     \"nodes\":{},\"server_ops\":{},\"local_ops\":{},\"peak_queue\":{},\
                     \"replicates\":{},\"mean_ns\":{},\"p50_ns\":{},\"p95_ns\":{},\
                     \"p99_ns\":{},\"q_within\":{}}}",
                    esc(&req.id),
                    esc(&label),
                    l.time_to_launch_ns,
                    l.nodes,
                    l.server_ops,
                    l.local_ops,
                    l.peak_queue_depth,
                    st.replicates,
                    st.mean_ns,
                    st.p50_ns,
                    st.p95_ns,
                    st.p99_ns,
                    q.within,
                ));
            }
        }
        answers
    });
    Ok(Served { answers, stats, parse_error: None })
}

/// The op streams of one cell, captured by calling the layers a profiling
/// run is made of directly: `Workload::install`, the loader's
/// `profile_load_checked`, and `depchaos_core::wrap`.
pub struct SplitProfile {
    pub plain: Option<StraceLog>,
    pub wrapped: Option<StraceLog>,
}

pub fn split_profile(
    workload: &dyn Workload,
    backend: &MatrixBackend,
    storage: StorageModel,
    t: &mut Trace,
) -> SplitProfile {
    let none = SplitProfile { plain: None, wrapped: None };
    let fs = Vfs::new(storage.backend());
    let Ok(installed) = t.span("workloads.install", |_| workload.install(&fs)) else {
        return none;
    };
    let env = workload.environment();
    let Ok(loader_backend) = t.span("loader.load", |_| backend.backend_for(&fs, &installed)) else {
        return none;
    };
    let capture = |t: &mut Trace| {
        t.span("loader.load", |_| {
            let loader = loader_backend.instantiate(&fs, &env, &LdCache::empty());
            profile_load_checked(&fs, &installed.exe_path, loader.as_ref()).ok().map(|(log, _)| log)
        })
    };
    let plain = capture(t);
    let opts = ShrinkwrapOptions::new().env(env.clone()).backend(loader_backend.clone());
    let wrapped = match t.span("core.wrap", |_| wrap(&fs, &installed.exe_path, &opts)) {
        Ok(_) => capture(t),
        Err(_) => None,
    };
    SplitProfile { plain, wrapped }
}

/// Do the split capture's streams equal the ones `ProfileCache` holds?
pub fn same_logs(split: &SplitProfile, cell: &CellProfile) -> bool {
    let eq =
        |a: &Option<StraceLog>, b: &Result<depchaos_launch::ProfileOutcome, String>| match (a, b) {
            (Some(a), Ok(b)) => a.entries == b.log.entries,
            (None, Err(_)) => true,
            _ => false,
        };
    eq(&split.plain, &cell.plain) && eq(&split.wrapped, &cell.wrapped)
}
