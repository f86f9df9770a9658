//! The NeuroCuts benchmark: two workloads, one process each, every
//! output verified before a number is reported.
//!
//! * `serve` — uniform traffic from one reader thread over the trained
//!   tree, no updates (cut traversal and leaf scan).
//! * `train` — paper-width training runs: batched forward, backward and
//!   the PPO update.
//!
//! Both workloads set up the same deployed classifier and report every
//! end-to-end metric, so both run the same cycle over and over until
//! the run's seconds are spent: a serving window, churn rounds (one
//! writer applying an update stream, the first round of each cycle
//! persisted), crash recoveries from that persisted round, and the set-ups
//! due by then. In `train` each cycle starts with a paper-width
//! training run, which takes about half the time; in `serve` the serving
//! window does. Every metric thus samples the whole stretch of the run.
//! Timings are on-CPU time ([`cpu`]), scaled to a nominal host speed by
//! reference samples taken around each timed stretch ([`calib`]).
//! See `README.md` beside this crate for the workloads' reasons and the
//! per-layer map.

pub mod calib;
pub mod churn;
pub mod cpu;
pub mod report;
pub mod serve;
pub mod setup;
pub mod stats;
pub mod tracer;
pub mod train;

use calib::Calibration;
use classbench::{trace_hash, Packet, RuleSet, TrafficSkew};
use dtree::{ClassifierHandle, DecisionTree, FlatTree, RebuildPolicy, RuleId, TreeStats};
use neurocuts::{NeuroCutsConfig, TrainReport};
use report::{Check, Metrics};
use serve::ReaderOut;
use setup::{Deployed, Scale};
use stats::Summary;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use tracer::{Spans, Tracer};

/// Trace streams derived from the run seed.
const STREAM_SERVE: u64 = 1;
const STREAM_ZIPF: u64 = 2;
const STREAM_SCHEDULE: u64 = 3;

/// Passes over the trace when timing the compiled kernel alone.
const FLAT_PROBE_PASSES: usize = 4;

/// Longest stretch a serving window runs between two reference samples,
/// in seconds.
const SERVE_CHUNK_S: f64 = 0.5;

/// Share of samples cut from each end before a trimmed mean.
const TRIM: f64 = 0.1;

/// Unpersisted churn rounds a cycle runs at least (so that even a short
/// run pools enough update calls for a p99).
const MIN_UNPERSISTED_ROUNDS: usize = 2;

/// The two workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Uniform traffic without updates, interleaved with churn rounds,
    /// then recovery.
    Serve,
    /// Paper-width training.
    Train,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 2] = [Workload::Serve, Workload::Train];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Train => "train",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Options {
    /// Which workload.
    pub workload: Workload,
    /// Seed of the traffic and update streams.
    pub seed: u64,
    /// Length of the timed window.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub traced: bool,
    /// Scratch directory for persisted state (created and emptied).
    pub work_dir: PathBuf,
    /// Workload sizes.
    pub scale: Scale,
}

/// Everything one run measured.
pub struct RunOutput {
    /// End-to-end metrics (in a traced run, the focus rates of its
    /// untraced turns) and, when traced, per-layer metrics.
    pub metrics: Metrics,
    /// Verified outputs and failures.
    pub check: Check,
    /// What the run's inputs were: seed, threads, trace and tree hashes.
    pub identity: Vec<(String, String)>,
    /// Summaries of every timing series, with raw samples of short ones.
    pub series: Vec<(String, Summary, Vec<f64>)>,
    /// Every span recorded.
    pub spans: Spans,
}

/// Cores available to the run.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

struct Ctx<'a> {
    opts: &'a Options,
    origin: Instant,
    out: RunOutput,
    /// Sum and count of the overlay lengths traced batches saw.
    overlay: (f64, f64),
    /// Reference samples of the host's speed around each phase.
    calib: Calibration,
}

/// Whether the `k`-th cycle is traced: every other one in a traced run,
/// so that host drift weighs on both sides of the tracing overhead alike.
fn traced_turn(opts: &Options, k: usize) -> bool {
    opts.traced && k % 2 == 1
}

/// Cycles a run makes at least: a traced run needs one of each kind.
fn min_turns(opts: &Options) -> usize {
    if opts.traced {
        2
    } else {
        1
    }
}

impl Ctx<'_> {
    fn scale(&self) -> &Scale {
        &self.opts.scale
    }

    fn ident(&mut self, key: &str, value: impl ToString) {
        self.out.identity.push((key.to_string(), value.to_string()));
    }

    /// Record a series; returns its summary.
    fn series(&mut self, name: &str, samples: &[f64]) -> Option<Summary> {
        let summary = Summary::of(samples)?;
        let raw = if samples.len() <= 1000 { samples.to_vec() } else { Vec::new() };
        self.out.series.push((name.to_string(), summary.clone(), raw));
        Some(summary)
    }

    fn set(&mut self, name: &'static str, value: f64) {
        self.out.metrics.set(name, value);
    }

    /// Add to a per-layer counter; counted only in traced phases.
    fn count(&mut self, traced: bool, name: &'static str, value: f64) {
        if traced {
            self.out.metrics.add(name, value);
        }
    }

    /// A main-thread tracer for one phase, recording when `on`.
    fn tracer(&self, on: bool) -> Tracer {
        Tracer::new(on, self.origin, 0)
    }

    fn absorb(&mut self, t: Tracer) {
        self.out.spans.absorb(t.finish());
    }

    fn dir(&self, name: &str) -> PathBuf {
        self.opts.work_dir.join(name)
    }

    /// A progress line on stderr, stamped with the run's elapsed time.
    fn progress(&self, what: &str) {
        eprintln!("[{:7.2}s] {what}", self.origin.elapsed().as_secs_f64());
    }
}

/// Run one workload.
pub fn run(opts: &Options) -> Result<RunOutput, String> {
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("create {}: {e}", opts.work_dir.display()))?;
    let mut ctx = Ctx {
        opts,
        origin: Instant::now(),
        out: RunOutput {
            metrics: Metrics::default(),
            check: Check::default(),
            identity: Vec::new(),
            series: Vec::new(),
            spans: Spans::default(),
        },
        overlay: (0.0, 0.0),
        calib: Calibration::default(),
    };
    ctx.ident("workload", opts.workload.name());
    ctx.ident("seed", opts.seed);
    ctx.ident("seconds", opts.seconds);
    ctx.ident("traced", opts.traced);
    ctx.ident("nproc", nproc());
    ctx.ident("scale", format!("{:?}", opts.scale));
    let result = workload(&mut ctx, &Plan::of(opts));
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    result?;
    ctx.set("peak_rss_mb", setup::peak_rss_mb()?);
    if opts.traced {
        layer_metrics(&ctx.out.spans, &mut ctx.out.metrics);
    }
    Ok(ctx.out)
}

/// Tree metrics and fingerprint.
fn record_tree(ctx: &mut Ctx<'_>, stats: &TreeStats) {
    ctx.set("tree_time", stats.time as f64);
    ctx.set("tree_bytes_per_rule", stats.bytes_per_rule);
    ctx.ident("tree_stats", stats);
    ctx.ident("tree_stats_hash", format!("{:016x}", setup::stats_hash(stats)));
}

/// The traced run's extra calls on a deployed tree: one more compile
/// under a span, the compiled tree's size, and the compiled kernel
/// alone over `trace`.
fn traced_tree(ctx: &mut Ctx<'_>, tree: &DecisionTree, trace: &[Packet]) {
    let mut t = ctx.tracer(true);
    let flat = t.time("dtree.flat.compile", 0, tree.num_nodes() as u64, || FlatTree::compile(tree));
    serve::probe_flat(&flat, trace, ctx.scale().batch, FLAT_PROBE_PASSES, &mut t);
    ctx.absorb(t);
    ctx.set("dtree.flat.nodes", flat.num_nodes() as f64);
    ctx.set("dtree.flat.resident_bytes", flat.resident_bytes() as f64);
}

/// The traced run's mirror of a finished training, which must
/// reproduce the trainer's timesteps and best objective exactly.
fn traced_mirror(ctx: &mut Ctx<'_>, rules: &RuleSet, cfg: &NeuroCutsConfig, report: &TrainReport) {
    let mut t = ctx.tracer(true);
    let mirrored = train::mirror(rules, cfg, report.history.len(), &mut t);
    ctx.absorb(t);
    let want = report.best.as_ref().map_or(f64::INFINITY, |b| b.objective);
    let ok = mirrored.timesteps == report.timesteps && mirrored.best_objective == want;
    ctx.out.check.expect(ok, || {
        format!(
            "mirrored training diverged: {} steps, objective {} (trainer: {} steps, objective {want})",
            mirrored.timesteps, mirrored.best_objective, report.timesteps
        )
    });
    ctx.count(true, "core.env.episodes", mirrored.episodes as f64);
    ctx.count(true, "core.env.steps", mirrored.timesteps as f64);
    ctx.count(true, "rl.ppo.update.epochs", mirrored.epochs as f64);
}

/// How a workload spends its cycles. Durations are shares of
/// `--seconds`, so that a short self-test run keeps a full run's shape.
struct Plan {
    /// Whether each cycle starts with a paper-width training run.
    train: bool,
    /// Share of `--seconds` each cycle's serving window lasts.
    serve: f64,
    /// Share of `--seconds` each cycle's unpersisted churn rounds last.
    churn: f64,
    /// Timed recoveries per cycle (a fraction spreads them over cycles).
    recoveries: f64,
    /// Set-ups per run.
    setups: usize,
}

impl Plan {
    fn of(opts: &Options) -> Plan {
        let reps = opts.scale.setup_reps;
        match opts.workload {
            // About twenty 2.5 s cycles in 50 s: 1.5 s of serving, 0.25 s
            // of unpersisted churn, a recovery every other cycle.
            Workload::Serve => {
                Plan { train: false, serve: 0.03, churn: 0.005, recoveries: 0.5, setups: reps }
            }
            // About four 13 s cycles in 50 s: a 7 s training run, 3 s of
            // serving, 1 s of unpersisted churn, two recoveries.
            Workload::Train => Plan {
                train: true,
                serve: 0.06,
                churn: 0.02,
                recoveries: 2.0,
                setups: reps.div_ceil(2),
            },
        }
    }
}

/// The deployed classifier every workload sets up, with its rules and
/// one trace.
struct Serving {
    deployed: Deployed,
    handle: ClassifierHandle,
    trace: Vec<Packet>,
}

/// The run's set-ups: the first deploys the classifier the workload
/// serves, and the rest run between the workload's later cycles, so
/// that `setup_s` samples the whole run rather than its first seconds
/// (a shared host's speed drifts within a run).
struct Setups {
    /// Set-ups the run makes.
    reps: usize,
    /// Whether set-ups record spans.
    traced: bool,
    /// The first set-up's tree; every set-up must build the same.
    stats: TreeStats,
    /// Seconds of each set-up so far.
    secs: Vec<f64>,
    /// Env-steps and seconds of each set-up's training.
    training: Vec<(f64, f64)>,
}

/// One set-up — generate the rules, train, compile a handle, generate
/// the trace — and its process CPU seconds. Those and its training's
/// are scaled to the nominal host speed (see [`calib`]).
fn setup_once(ctx: &mut Ctx<'_>, traced: bool) -> Result<(Serving, f64), String> {
    let scale = ctx.scale().clone();
    let mut t = ctx.tracer(traced);
    let before = ctx.calib.sample();
    let (set_up, secs) = cpu::timed(|| -> Result<_, String> {
        let deployed = setup::deploy(&scale, &scale.setup_config(), &mut t)?;
        let handle =
            ClassifierHandle::new((*deployed.tree).clone(), RebuildPolicy::default_policy());
        let (skew, seed) = (TrafficSkew::Uniform, ctx.opts.seed);
        let trace =
            setup::trace(&deployed.rules, scale.trace_len, skew, seed, STREAM_SERVE, &mut t);
        Ok((deployed, handle, trace))
    });
    let slowness = (before + ctx.calib.sample()) / 2.0;
    let (mut deployed, handle, trace) = set_up?;
    let secs = secs / slowness;
    deployed.train_s /= slowness;
    ctx.progress(&format!(
        "set-up: {secs:.3}s, training {:.3}s over {} steps",
        deployed.train_s, deployed.report.timesteps
    ));
    ctx.absorb(t);
    Ok((Serving { deployed, handle, trace }, secs))
}

/// Training steps and seconds of a deployed classifier.
fn training_of(deployed: &Deployed) -> (f64, f64) {
    (deployed.report.timesteps as f64, deployed.train_s)
}

/// Make the run's first set-up. A traced run traces set-up training
/// (and mirrors it) only when `trace_training`: in `train` the training
/// layers must report the workload's own paper-width training alone.
fn setup_serving(
    ctx: &mut Ctx<'_>,
    reps: usize,
    trace_training: bool,
) -> Result<(Serving, Setups), String> {
    let cfg = ctx.scale().setup_config();
    ctx.ident("setup_train_workers", cfg.workers);
    let traced = ctx.opts.traced && trace_training;
    let (serving, secs) = setup_once(ctx, traced)?;
    let deployed = &serving.deployed;
    ctx.ident("deployed_tree_stats_hash", format!("{:016x}", setup::stats_hash(&deployed.stats)));
    ctx.ident("trace_hash.uniform", format!("{:016x}", trace_hash(&serving.trace)));
    if ctx.opts.traced {
        traced_tree(ctx, &deployed.tree, &serving.trace);
    }
    if traced {
        traced_mirror(ctx, &deployed.rules, &cfg, &deployed.report);
    }
    let setups = Setups {
        reps,
        traced,
        stats: deployed.stats,
        secs: vec![secs],
        training: vec![training_of(deployed)],
    };
    Ok((serving, setups))
}

/// Make set-ups until `frac` (0 to 1) of the run's set-ups after the
/// first are done. Each must build the first set-up's tree.
fn setups_up_to(ctx: &mut Ctx<'_>, setups: &mut Setups, frac: f64) -> Result<(), String> {
    let reps = setups.reps;
    let want = (1 + (reps.saturating_sub(1) as f64 * frac.min(1.0)).floor() as usize).min(reps);
    while setups.secs.len() < want {
        let (again, secs) = setup_once(ctx, setups.traced)?;
        let (a, b) = (setups.stats, again.deployed.stats);
        ctx.out.check.expect(a == b, || format!("set-ups trained different trees: {a} vs {b}"));
        setups.secs.push(secs);
        setups.training.push(training_of(&again.deployed));
    }
    Ok(())
}

/// Make the set-ups that remain and set `setup_s` to their median.
/// `serve` (`report_deployment`) also reports the set-ups' training as
/// `train_steps_per_s` (their steps over their seconds), and the
/// deployed tree.
fn finish_setups(
    ctx: &mut Ctx<'_>,
    setups: &mut Setups,
    report_deployment: bool,
) -> Result<(), String> {
    setups_up_to(ctx, setups, 1.0)?;
    set_median(ctx, "setup_s", "setup_s", &setups.secs)?;
    let rates: Vec<f64> = setups.training.iter().map(|(n, s)| n / s).collect();
    ctx.series("setup.train_steps_per_s", &rates);
    if report_deployment {
        let (steps, secs) = setups.training.iter().fold((0.0, 0.0), |a, t| (a.0 + t.0, a.1 + t.1));
        ctx.set("train_steps_per_s", steps / secs);
        record_tree(ctx, &setups.stats);
    }
    Ok(())
}

/// Linear-scan ground truth of `trace` (set-up work, never timed).
fn ground_truth(rules: &RuleSet, trace: &[Packet]) -> Vec<Option<RuleId>> {
    trace.iter().map(|p| rules.classify(p)).collect()
}

/// Reader bookkeeping shared by every serving phase: verification
/// against `truth`, counters and spans.
fn absorb_reader(
    ctx: &mut Ctx<'_>,
    out: ReaderOut,
    truth: Option<&[Option<RuleId>]>,
    traced: bool,
) {
    let batch = ctx.scale().batch;
    if let Some(truth) = truth {
        out.verify(truth, batch, &mut ctx.out.check);
    }
    ctx.count(traced, "dtree.serve.handle.snapshot.refetches", out.refetches as f64);
    if !out.overlay_lens.is_empty() {
        ctx.overlay.0 += out.overlay_lens.iter().sum::<f64>();
        ctx.overlay.1 += out.overlay_lens.len() as f64;
        let max = out.overlay_lens.iter().copied().fold(0.0, f64::max);
        let seen = ctx.out.metrics.get("dtree.serve.snapshot.overlay_len.max").unwrap_or(0.0);
        ctx.set("dtree.serve.snapshot.overlay_len.max", seen.max(max));
        ctx.set("dtree.serve.snapshot.overlay_len.mean", ctx.overlay.0 / ctx.overlay.1);
    }
    ctx.out.spans.absorb(out.spans);
}

/// Set a metric to the median of a series (recorded under `series`).
fn set_median(
    ctx: &mut Ctx<'_>,
    metric: &'static str,
    series: &str,
    samples: &[f64],
) -> Result<f64, String> {
    let median =
        ctx.series(series, samples).ok_or_else(|| format!("no samples for {metric}"))?.median;
    ctx.set(metric, median);
    Ok(median)
}

/// Set a metric to the trimmed mean of a series (recorded under
/// `series`): see [`stats`] for why not its median.
fn set_mean(
    ctx: &mut Ctx<'_>,
    metric: &'static str,
    series: &str,
    samples: &[f64],
) -> Result<f64, String> {
    ctx.series(series, samples);
    let mean =
        stats::trimmed_mean(samples, TRIM).ok_or_else(|| format!("no samples for {metric}"))?;
    ctx.set(metric, mean);
    Ok(mean)
}

/// Set a `_p50_` and a `_p99_` metric from one series of latencies,
/// pooled over a whole run. Fails when the series is too short to
/// leave ten samples beyond its 99th percentile.
fn set_latency(
    ctx: &mut Ctx<'_>,
    (p50, p99): (&'static str, &'static str),
    series: &str,
    samples: &[f64],
) -> Result<(), String> {
    let s = ctx.series(series, samples).ok_or_else(|| format!("no samples for {p50}"))?;
    let tail = s.p99.ok_or_else(|| format!("{} samples are too few for {p99}", s.n))?;
    ctx.set(p50, s.median);
    ctx.set(p99, tail);
    Ok(())
}

/// What the serving windows of one kind of cycle measured.
#[derive(Default)]
struct Served {
    /// On-CPU time of every batch but each stretch's first, in µs, at the
    /// nominal host speed.
    batch_us: Vec<f64>,
    /// Packets of those batches.
    packets: f64,
    /// Wall seconds of the windows (for the record).
    wall_s: f64,
}

impl Served {
    /// Packets per CPU second, in millions.
    fn mpps(&self) -> Option<f64> {
        let cpu_s = self.batch_us.iter().sum::<f64>() / 1e6;
        (cpu_s > 0.0).then(|| self.packets / cpu_s / 1e6)
    }
}

/// Serve `serving.trace` from one reader for `secs`, in stretches of at
/// most [`SERVE_CHUNK_S`] with a reference sample before and after each,
/// verify every batch against `truth`, and add the batches to `served`,
/// their times scaled to the nominal host speed by those samples. A
/// stretch's first batch warms the reader up and is not counted.
fn serve_window(
    ctx: &mut Ctx<'_>,
    serving: &Serving,
    truth: &[Option<RuleId>],
    secs: f64,
    traced: bool,
    served: &mut Served,
) {
    let batch = ctx.scale().batch;
    let mut left = secs;
    let mut before = ctx.calib.sample();
    loop {
        let stretch = left.min(SERVE_CHUNK_S);
        let t = Tracer::new(traced, ctx.origin, 1);
        let window = Duration::from_secs_f64(stretch);
        let mut out = serve::serve_for(&serving.handle, &serving.trace, batch, window, t);
        let after = ctx.calib.sample();
        let slowness = (before + after) / 2.0;
        before = after;
        let counted = out.batch_ns.get(1..).unwrap_or_default();
        served.batch_us.extend(counted.iter().map(|ns| ns / 1e3 / slowness));
        served.packets += (counted.len() * batch) as f64;
        served.wall_s += out.wall_s;
        // No update reaches this handle, so its overlay is always empty;
        // the overlay metrics describe the churn rounds' readers.
        out.overlay_lens.clear();
        absorb_reader(ctx, out, Some(truth), traced);
        left -= stretch;
        if left <= 1e-9 {
            break;
        }
    }
}

/// `trace`'s prefix the post-round checks classify.
fn check_prefix<'a>(ctx: &Ctx<'_>, trace: &'a [Packet]) -> &'a [Packet] {
    &trace[..trace.len().min(ctx.scale().check_len)]
}

/// What a run's cycles measured. The end-to-end figures come from its
/// untraced cycles; in a traced run, the traced cycles' headline rate
/// gives the tracing overhead.
#[derive(Default)]
struct Acc {
    /// Serving windows of the untraced and of the traced cycles.
    served: [Served; 2],
    /// Latency (µs) of every update call of the untraced unpersisted
    /// rounds.
    update_us: Vec<f64>,
    /// Their calls and writer seconds, and each round's rate.
    updates: (f64, f64),
    round_rates: Vec<f64>,
    /// The same latencies, calls and seconds of the untraced persisted
    /// rounds (per-layer figures).
    persisted_us: Vec<f64>,
    persisted: (f64, f64),
    /// Churn rounds run so far.
    rounds: usize,
    /// Recoveries made so far, timed ones, traced ones among those, and
    /// the untraced ones' times.
    recoveries: usize,
    timed: usize,
    traced_timed: usize,
    recover_ms: Vec<f64>,
    /// Training steps and seconds of the untraced and of the traced
    /// cycles, and each untraced run's rate.
    train: [(f64, f64); 2],
    train_rates: Vec<f64>,
    /// The latest training run; every run must build the same tree.
    trained: Option<Deployed>,
}

/// Run one workload: set up, then cycles until `--seconds` is spent
/// (within half a cycle), then the metrics.
fn workload(ctx: &mut Ctx<'_>, plan: &Plan) -> Result<(), String> {
    let (serving, mut setups) = setup_serving(ctx, plan.setups, !plan.train)?;
    let truth = ground_truth(&serving.deployed.rules, &serving.trace);
    ctx.ident("readers", 1);
    let checks = check_prefix(ctx, &serving.trace);
    // Traced churn rounds have a reader serving a zipf trace (hot
    // working set, overlay merge, read-lock waits behind the writer).
    let zipf = ctx.opts.traced.then(|| {
        let (rules, len, seed) = (&serving.deployed.rules, ctx.scale().trace_len, ctx.opts.seed);
        let mut t = ctx.tracer(false);
        setup::trace(rules, len, TrafficSkew::ZIPF, seed, STREAM_ZIPF, &mut t)
    });
    if let Some(zipf) = &zipf {
        ctx.ident("trace_hash.zipf", format!("{:016x}", trace_hash(zipf)));
    }
    let train_cfg = plan.train.then(|| ctx.scale().train_config());
    if let Some(cfg) = &train_cfg {
        ctx.ident("train_workers", cfg.workers);
    }
    let seconds = ctx.opts.seconds;
    let started = Instant::now();
    let mut acc = Acc::default();
    let mut c = 0;
    loop {
        let traced = traced_turn(ctx.opts, c);
        if let Some(cfg) = &train_cfg {
            train_once(ctx, cfg, traced, &mut acc)?;
        }
        let served = &mut acc.served[usize::from(traced)];
        serve_window(ctx, &serving, &truth, seconds * plan.serve, traced, served);
        let state = churn_cycle(
            ctx,
            &serving.deployed,
            zipf.as_deref(),
            checks,
            seconds * plan.churn,
            traced,
            &mut acc,
        )?;
        if acc.recoveries == 0 {
            recover_from(ctx, &state, checks, false, true, &mut acc)?;
        }
        let due = ((c + 1) as f64 * plan.recoveries).ceil() as usize;
        // A traced run's traced cycles need a recovery of their own.
        while acc.timed < due || (traced && acc.traced_timed == 0) {
            recover_from(ctx, &state, checks, traced, false, &mut acc)?;
        }
        setups_up_to(ctx, &mut setups, started.elapsed().as_secs_f64() / seconds)?;
        c += 1;
        let elapsed = started.elapsed().as_secs_f64();
        if c >= min_turns(ctx.opts) && elapsed + 0.5 * elapsed / c as f64 > seconds {
            break;
        }
    }
    ctx.progress(&format!("{c} cycles"));
    finish_setups(ctx, &mut setups, !plan.train)?;
    let [untraced, traced] = &acc.served;
    let mpps = untraced.mpps().ok_or("no untraced batch was served")?;
    ctx.set("serve_mpps", mpps);
    set_latency(ctx, ("batch_p50_us", "batch_p99_us"), "serve.batch_us", &untraced.batch_us)?;
    let wall_mpps = untraced.packets / untraced.wall_s.max(1e-9) / 1e6;
    ctx.progress(&format!(
        "served {mpps:.3} Mpkt/s per CPU second, {wall_mpps:.3} per wall second"
    ));
    set_churn_metrics(ctx, &acc)?;
    set_mean(ctx, "recover_ms", "recover_ms", &acc.recover_ms)?;
    match train_cfg {
        Some(cfg) => finish_training(ctx, &cfg, &mut acc, &serving.trace, &truth)?,
        None => overhead(ctx, Some(mpps), traced.mpps())?,
    }
    record_calibration(ctx);
    Ok(())
}

/// Put the run's reference samples in the record.
fn record_calibration(ctx: &mut Ctx<'_>) {
    let samples = ctx.calib.samples().to_vec();
    if let Some(s) = ctx.series("calib.reference_ns", &samples) {
        ctx.progress(&format!("host slowness {:.4} (median)", s.median / calib::NOMINAL_NS));
    }
}

/// In a traced run, report how much slower tracing made the run: the
/// headline rate of its untraced cycles over that of its traced cycles,
/// minus one.
fn overhead(ctx: &mut Ctx<'_>, untraced: Option<f64>, traced: Option<f64>) -> Result<(), String> {
    if ctx.opts.traced {
        let (Some(base), Some(with)) = (untraced, traced) else {
            return Err("a traced run made no cycle of each kind".to_string());
        };
        ctx.set("trace.overhead_frac", base / with - 1.0);
    }
    Ok(())
}

/// One cycle's churn: a persisted round, whose directory the cycle's
/// recoveries start from, then unpersisted rounds for `secs` (at least
/// [`MIN_UNPERSISTED_ROUNDS`]) between two reference samples, which
/// scale their timings to the nominal host speed. Returns the persisted
/// round's state.
///
/// The end-to-end update metrics come from the unpersisted rounds: with
/// persistence every 32nd update and every checkpoint waits for an
/// fsync, and a shared host's fsync latency swings several-fold from
/// one run to the next, so those figures measure the disk of the moment
/// more than the code. The persisted rounds feed recovery and their own
/// per-layer figures.
fn churn_cycle(
    ctx: &mut Ctx<'_>,
    deployed: &Deployed,
    reader_trace: Option<&[Packet]>,
    checks: &[Packet],
    secs: f64,
    traced: bool,
    acc: &mut Acc,
) -> Result<churn::Persisted, String> {
    let dir = ctx.dir(&format!("round-{}", acc.rounds));
    let round = churn_round(ctx, deployed, reader_trace, checks, Some(&dir), traced, acc)?;
    if !traced {
        acc.persisted_us.extend(round.updates.iter().map(|u| u.1 / 1e3));
        acc.persisted.0 += round.updates.len() as f64;
        acc.persisted.1 += round.writer_secs;
    }
    let state =
        churn::Persisted { dir, live_epoch: round.live_epoch, live_results: round.live_results };
    let before = ctx.calib.sample();
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < MIN_UNPERSISTED_ROUNDS || started.elapsed().as_secs_f64() < secs {
        rounds.push(churn_round(ctx, deployed, reader_trace, checks, None, traced, acc)?);
    }
    let slowness = (before + ctx.calib.sample()) / 2.0;
    for round in rounds.iter().filter(|_| !traced) {
        acc.update_us.extend(round.updates.iter().map(|u| u.1 / 1e3 / slowness));
        acc.updates.0 += round.updates.len() as f64;
        acc.updates.1 += round.writer_secs / slowness;
        acc.round_rates.push(round.update_rate() * slowness);
    }
    Ok(state)
}

/// One churn round over the deployed tree with an update stream of its
/// own (persisted to `dir` when given). In a traced cycle a reader
/// serves `reader_trace` beside the writer.
fn churn_round(
    ctx: &mut Ctx<'_>,
    deployed: &Deployed,
    reader_trace: Option<&[Packet]>,
    checks: &[Packet],
    dir: Option<&std::path::Path>,
    traced: bool,
    acc: &mut Acc,
) -> Result<churn::Round, String> {
    let k = acc.rounds;
    acc.rounds += 1;
    let spec = churn::RoundSpec {
        tree: &deployed.tree,
        rules: &deployed.rules,
        // Every round draws its own update stream, so the pooled samples
        // cover many streams instead of repeating one.
        schedule_seed: setup::sub_seed(setup::sub_seed(ctx.opts.seed, STREAM_SCHEDULE), k as u64),
        updates: ctx.scale().churn_updates,
        reader_trace: reader_trace.filter(|_| traced),
        batch: ctx.scale().batch,
        check_trace: checks,
        dir,
        round: k as u64,
    };
    let origin = ctx.origin;
    let mut t = ctx.tracer(traced);
    let round =
        churn::round(&spec, &mut ctx.out.check, &mut t, move || Tracer::new(traced, origin, 1));
    ctx.absorb(t);
    let mut round = round?;
    if let Some(reader) = round.reader.take() {
        absorb_reader(ctx, reader, None, traced);
    }
    ctx.count(traced, "dtree.wal.records", round.wal_records as f64);
    ctx.count(traced, "dtree.wal.bytes", round.wal_bytes as f64);
    Ok(round)
}

/// Set the update metrics from the untraced unpersisted rounds: the
/// latencies pooled over every call, the rate their calls over their
/// writer seconds. The untraced persisted rounds give the per-layer
/// `core.persist.update` figures.
fn set_churn_metrics(ctx: &mut Ctx<'_>, acc: &Acc) -> Result<(), String> {
    if acc.persisted.1 > 0.0 {
        ctx.set("core.persist.update_per_s", acc.persisted.0 / acc.persisted.1);
    }
    if let Some(tail) = Summary::of(&acc.persisted_us).and_then(|s| s.p99) {
        ctx.set("core.persist.update.us.p99", tail);
    }
    set_latency(ctx, ("update_p50_us", "update_p99_us"), "churn.update_us", &acc.update_us)?;
    ctx.series("churn.round_update_per_s", &acc.round_rates);
    let (calls, secs) = acc.updates;
    if secs <= 0.0 {
        return Err("no untraced churn round ran".to_string());
    }
    ctx.set("update_per_s", calls / secs);
    ctx.progress(&format!(
        "churn: {} rounds, {:.0} updates/s",
        acc.round_rates.len(),
        calls / secs
    ));
    Ok(())
}

/// Recover from a fresh copy of `state`'s directory, checked against the
/// live handle that round dropped. A warm-up recovery is not timed.
fn recover_from(
    ctx: &mut Ctx<'_>,
    state: &churn::Persisted,
    checks: &[Packet],
    traced: bool,
    warm_up: bool,
    acc: &mut Acc,
) -> Result<(), String> {
    let id = acc.recoveries as u64;
    acc.recoveries += 1;
    let copy = ctx.dir(&format!("recover-{id}"));
    let mut t = ctx.tracer(traced && !warm_up);
    let before = ctx.calib.sample();
    let rec = churn::recover_one(state, &copy, id, checks, &mut ctx.out.check, &mut t);
    let slowness = (before + ctx.calib.sample()) / 2.0;
    ctx.absorb(t);
    let rec = rec?;
    if warm_up {
        return Ok(());
    }
    acc.timed += 1;
    acc.traced_timed += usize::from(traced);
    if !traced {
        acc.recover_ms.push(rec.ms / slowness);
    }
    ctx.count(traced, "core.persist.recover.replayed", rec.replayed as f64);
    ctx.count(traced, "core.persist.recover.spot_checked", rec.spot_checked as f64);
    Ok(())
}

/// One paper-width training run; every run must build the same tree.
fn train_once(
    ctx: &mut Ctx<'_>,
    cfg: &NeuroCutsConfig,
    traced: bool,
    acc: &mut Acc,
) -> Result<(), String> {
    let scale = ctx.scale().clone();
    let mut t = ctx.tracer(traced);
    let before = ctx.calib.sample();
    let run = setup::deploy(&scale, cfg, &mut t);
    let slowness = (before + ctx.calib.sample()) / 2.0;
    ctx.absorb(t);
    let run = run?;
    let (steps, secs) = training_of(&run);
    let secs = secs / slowness;
    let total = &mut acc.train[usize::from(traced)];
    total.0 += steps;
    total.1 += secs;
    if !traced {
        acc.train_rates.push(steps / secs);
    }
    ctx.progress(&format!(
        "trained {steps} steps in {secs:.3}s ({:.0} steps/s, traced {traced})",
        steps / secs
    ));
    if let Some(first) = &acc.trained {
        let (a, b) = (first.stats, run.stats);
        ctx.out.check.expect(a == b, || format!("training runs built different trees: {a} vs {b}"));
    }
    acc.trained = Some(run);
    Ok(())
}

/// The training metrics: steps over seconds of the untraced runs, the
/// trained tree (checked against the linear scan over `trace` through
/// the serving path) and, when traced, the mirrored training.
fn finish_training(
    ctx: &mut Ctx<'_>,
    cfg: &NeuroCutsConfig,
    acc: &mut Acc,
    trace: &[Packet],
    truth: &[Option<RuleId>],
) -> Result<(), String> {
    let rate = |(steps, secs): (f64, f64)| (secs > 0.0).then(|| steps / secs);
    ctx.series("train.steps_per_s", &acc.train_rates);
    let steps_per_s = rate(acc.train[0]).ok_or("no untraced training ran")?;
    ctx.set("train_steps_per_s", steps_per_s);
    overhead(ctx, Some(steps_per_s), rate(acc.train[1]))?;
    let trained = acc.trained.take().ok_or("no training ran")?;
    record_tree(ctx, &trained.stats);
    let handle = ClassifierHandle::new((*trained.tree).clone(), RebuildPolicy::default_policy());
    let mut got = vec![None; trace.len()];
    handle.snapshot().classify_batch(trace, &mut got);
    let bad = got.iter().zip(truth).filter(|(g, w)| g != w).count();
    ctx.out.check.add(got.len() as u64, bad as u64, || {
        format!("trained tree: {bad} packets disagree with the linear scan")
    });
    if ctx.opts.traced {
        traced_mirror(ctx, &trained.rules, cfg, &trained.report);
    }
    Ok(())
}

/// Per-layer metrics from the merged spans.
fn layer_metrics(spans: &Spans, m: &mut Metrics) {
    let by = spans.by_name();
    let median_ms = |name: &str| by.get(name).map(|s| stats::median(&s.durs_ns) / 1e6);
    let per_work = |name: &str, unit_ns: f64| {
        by.get(name)
            .filter(|s| s.work > 0)
            .map(|s| s.durs_ns.iter().sum::<f64>() / s.work as f64 / unit_ns)
    };
    // A p99 with fewer than ten calls beyond it is left out (reads 0).
    let pct_us = |name: &str, pick: fn(&Summary) -> Option<f64>| {
        by.get(name).and_then(|s| Summary::of(&s.durs_ns)).and_then(|s| pick(&s)).map(|v| v / 1e3)
    };
    let calls = |name: &str| by.get(name).map_or(0.0, |s| s.durs_ns.len() as f64);
    let mut put = |name: &'static str, v: Option<f64>| {
        if let Some(v) = v {
            m.set(name, v);
        }
    };
    put("classbench.generate_rules.ms", median_ms("classbench.generate_rules"));
    put("classbench.generate_trace.ms", median_ms("classbench.generate_trace"));
    put("core.trainer.train.ms", median_ms("core.trainer.train"));
    put("core.trainer.step.ms", median_ms("core.trainer.step"));
    put("core.trainer.step.calls", Some(calls("core.trainer.step")));
    put("core.vecenv.collect.us_per_step", per_work("core.vecenv.collect", 1e3));
    put("nn.policy_value.infer.us_per_row", per_work("nn.policy_value.infer", 1e3));
    put("rl.ppo.update.ms", median_ms("rl.ppo.update"));
    put("dtree.flat.compile.ms", median_ms("dtree.flat.compile"));
    put("dtree.flat.classify_batch.ns_per_pkt", per_work("dtree.flat.classify_batch", 1.0));
    put(
        "dtree.serve.snapshot.classify_batch.ns_per_pkt",
        per_work("dtree.serve.snapshot.classify_batch", 1.0),
    );
    put(
        "dtree.serve.handle.snapshot.us.p50",
        pct_us("dtree.serve.handle.snapshot", |s| Some(s.median)),
    );
    put("dtree.serve.handle.snapshot.us.p99", pct_us("dtree.serve.handle.snapshot", |s| s.p99));
    for (name, p50, p99, n) in [
        (
            "dtree.serve.insert",
            "dtree.serve.insert.us.p50",
            "dtree.serve.insert.us.p99",
            "dtree.serve.insert.calls",
        ),
        (
            "dtree.serve.delete",
            "dtree.serve.delete.us.p50",
            "dtree.serve.delete.us.p99",
            "dtree.serve.delete.calls",
        ),
        (
            "dtree.serve.rebuild",
            "dtree.serve.rebuild.us.p50",
            "dtree.serve.rebuild.us.p99",
            "dtree.serve.rebuild.calls",
        ),
    ] {
        put(p50, pct_us(name, |s| Some(s.median)));
        put(p99, pct_us(name, |s| s.p99));
        put(n, Some(calls(name)));
    }
    let rejected = calls("dtree.serve.rejected");
    put("dtree.serve.rejected", Some(rejected));
    put(
        "dtree.serve.attempts",
        Some(
            rejected
                + calls("dtree.serve.insert")
                + calls("dtree.serve.delete")
                + calls("dtree.serve.rebuild"),
        ),
    );
    put("core.persist.checkpoint.ms", median_ms("core.persist.checkpoint"));
    put("core.persist.checkpoint.calls", Some(calls("core.persist.checkpoint")));
    put("core.persist.read_checkpoint.ms", median_ms("core.persist.read_checkpoint"));
    put("dtree.wal.read_wal.ms", median_ms("dtree.wal.read_wal"));
    put("core.persist.recover.ms", median_ms("core.persist.recover"));
    let mut self_ns: std::collections::BTreeMap<&str, u64> = Default::default();
    for (name, s) in &by {
        if let Some(layer) = report::layer_of(name) {
            *self_ns.entry(layer).or_default() += s.self_ns;
        }
    }
    for &(metric, _) in report::PER_LAYER {
        if let Some(layer) = metric.strip_prefix("self_ms.") {
            put(metric, Some(self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e6));
        }
    }
    put("trace.spans", Some(spans.len() as f64));
}
