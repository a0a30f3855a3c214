//! One benchmark run: set up, measure passes until the time budget is
//! spent, check the outputs, and summarise.
//!
//! The workload is set up several times first (timed as `setup_s`). Each
//! iteration then runs one pass (timed as `wall_s`) on fresh engine state:
//! a new `ProfileCache`, and for `whatif_stream` a copy of the store set-up
//! pre-populated. Iterations continue while at least half of another one
//! fits in the budget.
//! With `--trace 1` each iteration runs an untraced pass and then a traced
//! one, whose results must equal the untraced pass's; the difference of
//! their walls is the tracing overhead.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use depchaos_launch::{ExperimentMatrix, ProfileCache, Scenario, SweepReport};
use depchaos_serve::{
    run_matrix_incremental, serve_batch, QueryOutcome, ResultStore, WhatIfRequest,
};

use crate::check::{self, Tally};
use crate::inputs::{self, cell_of, Workload, JOBS};
use crate::metrics::{median, peak_rss_mib, tail, Outcome};
use crate::mirror::{self, Counts};
use crate::trace::{Trace, BENCH_SPANS};

/// Set-up samples per run: at least `SETUP_MIN`, and more, up to
/// `SETUP_MAX`, while they have taken less than `SETUP_SPEND` in all.
const SETUP_MIN: usize = 5;
const SETUP_MAX: usize = 25;
const SETUP_SPEND: Duration = Duration::from_millis(200);
/// A set-up faster than this is sampled as the mean of as many
/// back-to-back set-ups as fill it, so that a microsecond set-up is not
/// measured at the resolution of the timer and the first cache misses.
const SETUP_SAMPLE: Duration = Duration::from_millis(10);

fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn run(w: Workload, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let work = out_dir().join(format!("work-{}", std::process::id()));
    let mut b = Bench {
        w,
        seed,
        trace,
        budget: Duration::from_secs(seconds),
        tally: Tally::default(),
        bad: Vec::new(),
        setup_s: Vec::new(),
        wall_s: Vec::new(),
        latencies_ms: Vec::new(),
        traced: Vec::new(),
        split: Trace::new(),
        digests: Vec::new(),
        peak_rss_mib: 0.0,
        check_s: 0.0,
    };
    match w {
        Workload::WhatifStream => b.whatif(&work),
        _ => b.matrix(),
    }
    let _ = std::fs::remove_dir_all(&work);
    b.finish()
}

/// A set-up that failed: the operations it attempted, how many of them
/// failed, and why.
struct SetupError {
    attempted: u64,
    failed: u64,
    why: String,
}

/// What one traced pass measured.
struct TracedPass {
    wall_s: f64,
    self_s: BTreeMap<&'static str, f64>,
    counts: Counts,
    bytes_appended: u64,
    records_loaded: u64,
    trace: Trace,
}

struct Bench {
    w: Workload,
    seed: u64,
    trace: bool,
    budget: Duration,
    tally: Tally,
    /// Failed output checks, one line each.
    bad: Vec<String>,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    latencies_ms: Vec<f64>,
    traced: Vec<TracedPass>,
    /// Spans of the profiling runs re-enacted layer by layer.
    split: Trace,
    digests: Vec<u64>,
    peak_rss_mib: f64,
    /// Host time spent in the sampled re-solve check.
    check_s: f64,
}

fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

impl Bench {
    /// Set the workload up several times before the first pass and keep
    /// the last inputs. `setup_s` is the median of the samples; the first two
    /// set-ups only size them. The first set-up that fails ends the sampling.
    fn measure_setup<T>(
        &mut self,
        mut f: impl FnMut() -> Result<T, SetupError>,
    ) -> Result<T, SetupError> {
        black_box(f()?);
        let t = Instant::now();
        let mut v = black_box(f()?);
        let batch = (SETUP_SAMPLE.as_nanos() / t.elapsed().as_nanos().max(1)).max(1) as u32;
        let started = Instant::now();
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                v = black_box(f()?);
            }
            self.setup_s.push(secs(t) / f64::from(batch));
            let n = self.setup_s.len();
            if n >= SETUP_MAX || (n >= SETUP_MIN && started.elapsed() >= SETUP_SPEND) {
                return Ok(v);
            }
        }
    }

    /// Record an untraced pass. The peak resident set is read after the
    /// first one: a fresh process running the workload once, as a user of
    /// `depchaos-report` or `depchaos-serve` does.
    fn pass_done(&mut self, wall_s: f64) {
        self.wall_s.push(wall_s);
        if self.wall_s.len() == 1 {
            self.peak_rss_mib = peak_rss_mib();
        }
    }

    fn fail(&mut self, failed: u64, why: String) {
        self.tally.failed += failed;
        self.bad.push(why);
    }

    fn setup_failed(&mut self, e: SetupError) {
        self.tally.attempted += e.attempted;
        self.fail(e.failed, e.why);
    }

    /// Start another iteration while the budget has at least half an
    /// iteration, as long as the last one, left. A run then ends within
    /// half an iteration of its budget, and a pass slightly longer than
    /// half the budget still gets a second sample.
    fn another(&self, started: Instant, iteration: Instant) -> bool {
        started.elapsed() + iteration.elapsed() / 2 <= self.budget
    }

    fn matrix(&mut self) {
        let build = match self.w {
            Workload::StochasticSweep => inputs::stochastic_sweep,
            Workload::ProfileMatrix => inputs::profile_matrix,
            Workload::AdaptiveSweep => inputs::adaptive_sweep,
            Workload::WhatifStream => unreachable!("whatif_stream is not a matrix workload"),
        };
        let seed = self.seed;
        let Ok(matrix) = self.measure_setup(|| Ok(build(seed))) else {
            unreachable!("building a matrix cannot fail")
        };
        let started = Instant::now();
        let mut last: Option<(SweepReport, ProfileCache)> = None;
        loop {
            let iteration = Instant::now();
            drop(last.take());
            let cells = (matrix.expand().len() * matrix.effective_rank_points().len()) as u64;
            let (profiles, store) = (ProfileCache::new(), ResultStore::in_memory());
            let t = Instant::now();
            let r = run_matrix_incremental(&matrix, &store, &profiles, JOBS);
            let wall = secs(t);
            self.pass_done(wall);
            self.latencies_ms.push(wall * 1e3);
            self.tally.attempted += cells;
            match r {
                Ok((report, stats)) => {
                    let failed = check::matrix_failures(&report, &stats);
                    if failed > 0 {
                        self.fail(failed, format!("{failed} panicked or queueing-violating cells"));
                    }
                    self.digests.push(check::report_digest(&report));
                    if self.trace {
                        self.traced_matrix(&matrix, &report, cells);
                    }
                    last = Some((report, profiles));
                }
                Err(e) => self.fail(cells, format!("store I/O error: {e}")),
            }
            if !self.another(started, iteration) {
                break;
            }
        }
        // Without a completed pass the failure is already recorded.
        let Some((report, profiles)) = last else { return };
        let t = Instant::now();
        let bad = check::resolve_sample(&matrix, &report, &profiles, self.seed);
        self.check_s += secs(t);
        if bad > 0 {
            self.fail(bad, format!("{bad} re-solved sample cells disagree with the pass"));
        }
    }

    fn traced_matrix(&mut self, matrix: &ExperimentMatrix, untraced: &SweepReport, cells: u64) {
        let (profiles, store) = (ProfileCache::new(), ResultStore::in_memory());
        let mut t = Trace::new();
        let mut counts = Counts::default();
        let start = Instant::now();
        let r =
            t.span("pass", |t| mirror::run_matrix(matrix, &store, &profiles, JOBS, t, &mut counts));
        let wall_s = secs(start);
        self.tally.attempted += cells;
        match r {
            Ok((report, _)) if report.results == untraced.results => {}
            Ok(_) => self.fail(cells, "traced results differ from the untraced pass".into()),
            Err(e) => self.fail(cells, format!("store I/O error in the traced pass: {e}")),
        }
        if self.traced.is_empty() {
            self.check_split(matrix.expand(), &profiles);
        }
        self.traced.push(TracedPass {
            wall_s,
            self_s: t.self_seconds(),
            counts,
            bytes_appended: 0,
            records_loaded: 0,
            trace: t,
        });
    }

    /// Re-enact each distinct profiling run among `scenarios` layer by
    /// layer and require the op streams `profiles` holds.
    fn check_split(&mut self, scenarios: Vec<Scenario>, profiles: &ProfileCache) {
        let mut seen = HashSet::new();
        for s in scenarios {
            let key = s.cell_key();
            if !seen.insert(key.clone()) {
                continue;
            }
            let Some(cell) = profiles.get(&key) else { continue };
            let split =
                mirror::split_profile(s.workload.as_ref(), &s.backend, s.storage, &mut self.split);
            if !mirror::same_logs(&split, &cell) {
                self.fail(1, format!("layer-by-layer profile of {key:?} differs from the cache"));
            }
        }
    }

    /// Iterations stop at the first failed set-up or store open; the
    /// failure is recorded, and its operations count as attempted.
    /// Set-up pre-populates the store under `work/seeded`; each pass, traced
    /// ones included, serves the stream against a copy of it under
    /// `work/live`.
    fn whatif(&mut self, work: &Path) {
        let (seed, seeded, dir) = (self.seed, work.join("seeded"), work.join("live"));
        let (inputs, known) = match self.measure_setup(|| whatif_setup(seed, &seeded)) {
            Ok(p) => p,
            Err(e) => return self.setup_failed(e),
        };
        let n = inputs.stream.len() as u64;
        let started = Instant::now();
        loop {
            let iteration = Instant::now();
            if let Err(e) = restore(&seeded, &dir) {
                self.tally.attempted += n;
                return self.fail(n, format!("cannot copy the pre-populated store: {e}"));
            }
            let t = Instant::now();
            let store = match ResultStore::open(&dir) {
                Ok(s) => s,
                Err(e) => {
                    self.tally.attempted += n;
                    return self.fail(n, format!("cannot open store: {e}"));
                }
            };
            let profiles = ProfileCache::new();
            let mut outs: Vec<std::io::Result<QueryOutcome>> =
                Vec::with_capacity(inputs.stream.len());
            for line in &inputs.stream {
                let q = Instant::now();
                let r = serve_batch(line, &store, &profiles, JOBS);
                self.latencies_ms.push(q.elapsed().as_secs_f64() * 1e3);
                outs.push(r.map(|mut b| b.queries.remove(0)));
            }
            self.pass_done(secs(t));
            drop((store, profiles));
            self.check_answers(&inputs, known.clone(), &outs);
            if self.trace && !self.traced_whatif(&inputs, &seeded, &dir, &outs) {
                return;
            }
            if !self.another(started, iteration) {
                break;
            }
        }
    }

    /// Per query: served without error, and — for a cell answered before,
    /// in set-up or earlier in the stream — byte-identical to the first
    /// answer apart from the id.
    fn check_answers(
        &mut self,
        inputs: &inputs::WhatifInputs,
        mut known: HashMap<String, String>,
        outs: &[std::io::Result<QueryOutcome>],
    ) {
        let mut answers = String::new();
        let mut failed = 0u64;
        for (line, out) in inputs.stream.iter().zip(outs) {
            let ok = match out {
                Err(_) => false,
                Ok(q) => {
                    let body = check::strip_id(&q.answers, &q.id);
                    answers.push_str(&body);
                    answers.push('\n');
                    let repeat_ok = match known.get(cell_of(line)) {
                        Some(first) => *first == body,
                        None => {
                            known.insert(cell_of(line).to_string(), body);
                            true
                        }
                    };
                    repeat_ok && !check::query_failed(&q.parse_error, &q.stats)
                }
            };
            failed += u64::from(!ok);
        }
        self.tally.attempted += outs.len() as u64;
        if failed > 0 {
            self.fail(failed, format!("{failed} queries failed or answered a repeat differently"));
        }
        self.digests.push(check::fnv(answers.as_bytes()));
    }

    /// One traced pass; false when the store could not be copied or
    /// opened.
    fn traced_whatif(
        &mut self,
        inputs: &inputs::WhatifInputs,
        seeded: &Path,
        dir: &Path,
        untraced: &[std::io::Result<QueryOutcome>],
    ) -> bool {
        let n = inputs.stream.len() as u64;
        if let Err(e) = restore(seeded, dir) {
            self.tally.attempted += n;
            self.fail(n, format!("cannot copy the pre-populated store: {e}"));
            return false;
        }
        let log = dir.join("store.jsonl");
        let size = |p: &Path| std::fs::metadata(p).map_or(0, |m| m.len());
        let before = size(&log);
        let profiles = ProfileCache::new();
        let mut t = Trace::new();
        let mut counts = Counts::default();
        let start = Instant::now();
        let pass = t.span("pass", |t| {
            let store = t.span("store.open", |_| ResultStore::open(dir))?;
            let mut served = Vec::with_capacity(inputs.stream.len());
            for (i, line) in inputs.stream.iter().enumerate() {
                t.query = Some(i as u32);
                served.push(mirror::serve_query(line, &store, &profiles, JOBS, t, &mut counts));
            }
            t.query = None;
            Ok::<_, std::io::Error>((served, store.load_stats().loaded as u64))
        });
        let wall_s = secs(start);
        self.tally.attempted += n;
        let (served, records_loaded) = match pass {
            Ok(p) => p,
            Err(e) => {
                self.fail(n, format!("cannot open store in the traced pass: {e}"));
                return false;
            }
        };
        let bytes_appended = size(&log).saturating_sub(before);
        let differ = served
            .iter()
            .zip(untraced)
            .filter(|(a, b)| match (a, b) {
                (Ok(a), Ok(b)) => {
                    a.answers != b.answers || a.parse_error != b.parse_error || a.stats != b.stats
                }
                _ => true,
            })
            .count() as u64;
        if differ > 0 {
            self.fail(differ, format!("{differ} traced answers differ from the untraced pass"));
        }
        if self.traced.is_empty() {
            let scenarios = inputs
                .stream
                .iter()
                .filter_map(|l| WhatIfRequest::parse(l).and_then(|r| r.matrix()).ok())
                .flat_map(|m| m.expand())
                .collect();
            self.check_split(scenarios, &profiles);
        }
        self.traced.push(TracedPass {
            wall_s,
            self_s: t.self_seconds(),
            counts,
            bytes_appended,
            records_loaded,
            trace: t,
        });
        true
    }

    fn finish(mut self) -> Outcome {
        let name = self.w.name();
        if self.digests.windows(2).any(|d| d[0] != d[1]) {
            let n = self.digests.len() as u64;
            self.fail(n, "output digest differs between passes".into());
        }
        let digest = self.digests.first().copied().unwrap_or(0);
        let recorded = check::recorded_digest(self.w);
        if self.seed == inputs::DEFAULT_SEED && !self.digests.is_empty() && digest != recorded {
            self.fail(1, format!("output digest {digest:#018x} != recorded {recorded:#018x}"));
        }
        let mut notes = vec![format!(
            "{name} seed {}: {} passes, output digest {digest:#018x}, fail_frac {} ({}/{})",
            self.seed,
            self.wall_s.len(),
            self.tally.fail_frac(),
            self.tally.failed,
            self.tally.attempted,
        )];
        let walls: Vec<String> = self.wall_s.iter().map(|w| format!("{w:.4}")).collect();
        notes.push(format!("untraced pass walls (s): {}", walls.join(" ")));
        if self.check_s > 0.0 {
            notes.push(format!("sampled re-solve check took {:.3} s", self.check_s));
        }
        notes.extend(self.bad.iter().map(|b| format!("CHECK FAILED: {b}")));
        let metrics =
            if self.trace { self.layer_metrics(&mut notes) } else { self.e2e_metrics(&mut notes) };
        if let Some(last) = self.traced.last() {
            let dir = out_dir();
            let _ = std::fs::create_dir_all(&dir);
            for (t, kind) in [(&last.trace, "pass"), (&self.split, "profile")] {
                let path = dir.join(format!("spans-{name}-{}-{kind}.jsonl", self.seed));
                match t.write_jsonl(&path) {
                    Ok(()) => notes.push(format!("spans: {}", path.display())),
                    Err(e) => notes.push(format!("cannot write {}: {e}", path.display())),
                }
            }
        }
        Outcome {
            correct: self.bad.is_empty() && self.tally.failed == 0,
            attempted: self.tally.attempted,
            failed: self.tally.failed,
            metrics,
            notes,
        }
    }

    fn e2e_metrics(&self, notes: &mut Vec<String>) -> Vec<(&'static str, f64)> {
        let (p99, pct) = tail(&self.latencies_ms);
        notes.push(format!(
            "query latency: p50 and p{pct:.2} over {} samples ({})",
            self.latencies_ms.len(),
            if self.w == Workload::WhatifStream { "queries" } else { "passes" }
        ));
        vec![
            ("wall_s", median(&self.wall_s)),
            ("setup_s", median(&self.setup_s)),
            ("query_p50_ms", median(&self.latencies_ms)),
            ("query_p99_ms", p99),
            ("peak_rss_mib", self.peak_rss_mib),
        ]
    }

    fn layer_metrics(&self, notes: &mut Vec<String>) -> Vec<(&'static str, f64)> {
        let busy = |names: &[&str]| -> f64 {
            median(
                &self
                    .traced
                    .iter()
                    .map(|p| names.iter().map(|n| p.self_s.get(n).copied().unwrap_or(0.0)).sum())
                    .collect::<Vec<f64>>(),
            )
        };
        let split = self.split.self_seconds();
        let split_s = |n: &str| split.get(n).copied().unwrap_or(0.0);
        // A run whose set-up failed has no traced pass; it reports zeros.
        let none = TracedPass {
            wall_s: 0.0,
            self_s: BTreeMap::new(),
            counts: Counts::default(),
            bytes_appended: 0,
            records_loaded: 0,
            trace: Trace::new(),
        };
        let last = self.traced.last().unwrap_or(&none);
        let c = &last.counts;
        let traced_wall = median(&self.traced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
        let untraced_wall = median(&self.wall_s);
        let per = |s: f64, n: u64| if n == 0 { 0.0 } else { s * 1e9 / n as f64 };
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let m: Vec<(&'static str, f64)> = vec![
            ("profile.busy_s", busy(&["profile"])),
            ("profile.cells", c.profile_cells as f64),
            ("profile.syscalls", c.profile_syscalls as f64),
            ("profile.ns_per_syscall", per(busy(&["profile"]), c.profile_syscalls)),
            ("workloads.install_s", split_s("workloads.install")),
            ("loader.load_s", split_s("loader.load")),
            ("core.wrap_s", split_s("core.wrap")),
            ("classify.busy_s", busy(&["classify"])),
            ("classify.streams", c.classify_streams as f64),
            ("classify.server_segments", c.classify_segments as f64),
            ("plan.busy_s", busy(&["plan"])),
            ("plan.rows", c.plan_rows as f64),
            ("plan.rows_coalesced", c.plan_classes[0] as f64),
            ("plan.rows_analytic", c.plan_classes[1] as f64),
            ("plan.rows_stochastic", c.plan_classes[2] as f64),
            ("plan.rows_heap", c.plan_classes[3] as f64),
            ("execute.busy_s", busy(&["execute"])),
            ("execute.server_ops", c.execute_server_ops as f64),
            ("execute.ns_per_server_op", per(busy(&["execute"]), c.execute_server_ops)),
            ("queueing.busy_s", busy(&["queueing"])),
            ("queueing.checks", c.queueing_checks as f64),
            ("queueing.violations", c.queueing_violations as f64),
            ("adaptive.busy_s", busy(&["adaptive"])),
            ("adaptive.replicate_sims", c.adaptive_sims as f64),
            ("adaptive.savings_ratio", ratio(c.adaptive_fixed_sims, c.adaptive_sims)),
            ("requests.parse_s", busy(&["requests.parse"])),
            ("requests.format_s", busy(&["requests.format"])),
            ("key.busy_s", busy(&["key"])),
            ("key.count", c.key_count as f64),
            ("store.open_s", busy(&["store.open"])),
            ("store.busy_s", busy(&["store.get", "store.put"])),
            ("store.records_loaded", last.records_loaded as f64),
            ("store.bytes_appended", last.bytes_appended as f64),
            ("store.hit_rate", ratio(c.store_hits, c.store_lookups)),
            ("exec.busy_s", busy(&["exec"])),
            ("exec.cold_cells", c.exec_cold_cells as f64),
            ("exec.warm_hits", c.exec_warm_hits as f64),
            ("trace.wall_s", traced_wall),
            ("trace.untraced_wall_s", untraced_wall),
            ("trace.overhead_s", traced_wall - untraced_wall),
            ("trace.unattributed_s", busy(&BENCH_SPANS)),
            ("trace.spans", last.trace.spans.len() as f64),
            ("fail_frac", self.tally.fail_frac()),
        ];
        // Self time per layer as a share of the traced wall. The profile
        // pool runs on several threads, so its busy time can exceed its
        // share of the wall.
        let mut layers: Vec<(&str, f64)> = last.self_s.keys().map(|n| (*n, busy(&[n]))).collect();
        layers.sort_by(|a, b| b.1.total_cmp(&a.1));
        let outside = busy(&BENCH_SPANS);
        notes.push(format!(
            "traced pass {traced_wall:.4} s, untraced {untraced_wall:.4} s; layer calls cover \
             {:.2}% of the traced wall. Self time by span:",
            100.0 * (traced_wall - outside) / traced_wall
        ));
        for (n, s) in layers {
            notes.push(format!("  {n:<16} {s:>10.4} s {:>6.1}%", 100.0 * s / traced_wall));
        }
        m
    }
}

/// Generate the inputs and serve the set-up requests into a fresh store
/// under `dir`. Returns the inputs and each set-up cell's answer. When the
/// set-up fails, its requests are the operations attempted: all of them
/// fail on a store error, else those that failed to parse or panicked.
fn whatif_setup(
    seed: u64,
    dir: &Path,
) -> Result<(inputs::WhatifInputs, HashMap<String, String>), SetupError> {
    let inputs = inputs::whatif(seed);
    let known = prepopulate(&inputs.prepopulate, dir)?;
    Ok((inputs, known))
}

/// Replace the store under `dir` with a copy of the one under `seeded`.
fn restore(seeded: &Path, dir: &Path) -> std::io::Result<()> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir)?;
    std::fs::copy(seeded.join("store.jsonl"), dir.join("store.jsonl")).map(drop)
}

/// Serve `requests` into a fresh store under `dir` and return each cell's
/// answer.
fn prepopulate(requests: &[String], dir: &Path) -> Result<HashMap<String, String>, SetupError> {
    let n = requests.len() as u64;
    let io = |e: std::io::Error| SetupError {
        attempted: n,
        failed: n,
        why: format!("store I/O error in set-up: {e}"),
    };
    let _ = std::fs::remove_dir_all(dir);
    let store = ResultStore::open(dir).map_err(io)?;
    let batch =
        serve_batch(&requests.join("\n"), &store, &ProfileCache::new(), JOBS).map_err(io)?;
    if batch.had_errors() {
        let failed =
            batch.queries.iter().filter(|q| check::query_failed(&q.parse_error, &q.stats)).count();
        return Err(SetupError {
            attempted: n,
            failed: failed as u64,
            why: format!("{failed} set-up requests failed to parse or panicked"),
        });
    }
    Ok(requests
        .iter()
        .zip(&batch.queries)
        .map(|(line, q)| (cell_of(line).to_string(), check::strip_id(&q.answers, &q.id)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_set_up_request_is_counted_not_fatal() {
        let dir = out_dir().join(format!("test-setup-{}", std::process::id()));
        let requests = [
            r#"{"id":"p0","base":"pynamic-10","ranks":[256]}"#.to_string(),
            r#"{"id":"p1","base":"poison","ranks":[256]}"#.to_string(),
            r#"{"id":"p2","base":"pynamic-10","dist":"uniform-200"}"#.to_string(),
        ];
        let e = prepopulate(&requests, &dir).expect_err("poison and a parse error fail");
        assert_eq!((e.attempted, e.failed), (3, 2));
        assert_eq!(prepopulate(&requests[..1], &dir).map(|k| k.len()).ok(), Some(1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
