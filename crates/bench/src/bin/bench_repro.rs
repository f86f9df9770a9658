//! `bench_repro` — the paper's evaluation (§6: Figures 8–11 and the
//! ablations) from one run table, written to `BENCH_repro.json`.
//!
//! For each classifier of the suite ([`nc_bench::suite`]) it builds the
//! four figure baselines once and trains each distinct NeuroCuts
//! configuration once, all under one seed:
//!
//! | run | `c` | partitions | reward scaling | read by |
//! |---|---|---|---|---|
//! | time | 1 | simple | linear | Fig. 8; the ablations' "paper" rows |
//! | space | 0 | EffiCuts | log | Figs. 9 and 10 |
//! | sweep | 0, 0.1, 0.5, 1 | simple | log | Fig. 11 |
//! | ablation (acl1 only) | 1 | simple | linear | the time run with one switch or size changed |
//!
//! A run is keyed by its `NeuroCutsConfig` value, so rows that ask for
//! the same configuration read one training: the ablations' "paper"
//! rows are the time run, and so is "rollout cap 1000" at the default
//! budget. Each run reports [`neurocuts::Trainer::deployed_tree`] — the
//! best completed rollout, else the greedy tree — the tree the CLI, the
//! sweep and the lifecycle worker deploy.
//!
//! Every tree, baseline or trained, is checked against the rule set's
//! linear scan on a trace of the classifier's rules, and any mismatch
//! exits non-zero once the file is written. The file holds one row per
//! baseline tree and one per run, and the figures are printed from
//! those rows. A `*` marks a NeuroCuts tree from the greedy fallback.
//!
//! Reads `NC_SIZE`, `NC_TIMESTEPS`, `NC_VARIANTS`, `NC_FAMILIES` (see
//! `nc_bench`) and `NC_BENCH_OUT`. The committed file is the full suite
//! at 1k rules:
//!
//! ```text
//! NC_SIZE=1000 NC_TIMESTEPS=200000 cargo run --release -p nc-bench --bin bench_repro
//! ```

use baselines::Baseline;
use classbench::{generate_trace, ClassifierFamily, TraceConfig};
use dtree::{DecisionTree, TreeStats};
use nc_bench::emit::Report;
use nc_bench::{
    harness_config, improvement, median, print_row, suite, suite_size, train_timesteps,
    FIGURE_BASELINES,
};
use neurocuts::{NeuroCutsConfig, PartitionMode, RewardScaling, Trainer};
use serde_json::{json, Value};
use std::time::Instant;

/// The one training seed (and trace seed) of every run.
const SEED: u64 = 1;
/// Packets of each classifier's trace that every tree is checked on.
const TRACE: usize = 2048;
/// Fig. 11's time-space coefficients.
const SWEEP: [f64; 4] = [0.0, 0.1, 0.5, 1.0];

/// The figure value read off a tree's stats.
type Metric = fn(&TreeStats) -> f64;

/// Fig. 8's time-optimised run: `c` = 1 with the simple partitioner
/// (the paper's best time trees use none or simple; it rescues
/// wildcard-heavy FW sets from replication blowup).
fn time_run() -> NeuroCutsConfig {
    harness_config().with_coeff(1.0).with_partition_mode(PartitionMode::Simple).with_seed(SEED)
}

/// Figs. 9 and 10's space-optimised run: `c` = 0 with the EffiCuts
/// partition action.
fn space_run() -> NeuroCutsConfig {
    harness_config().with_coeff(0.0).with_partition_mode(PartitionMode::EffiCuts).with_seed(SEED)
}

/// Fig. 11's run at coefficient `c`: the simple partitioner and log
/// scaling throughout, `c` = 1 included.
fn sweep_run(c: f64) -> NeuroCutsConfig {
    let mut cfg =
        harness_config().with_coeff(c).with_partition_mode(PartitionMode::Simple).with_seed(SEED);
    cfg.reward_scaling = RewardScaling::Log;
    cfg
}

/// The ablations as (group heading, row name, configuration): each is
/// the time run with one switch or size changed, and the "(paper)" rows
/// are the time run itself.
fn ablations() -> Vec<(&'static str, String, NeuroCutsConfig)> {
    let with = |change: &dyn Fn(&mut NeuroCutsConfig)| {
        let mut cfg = time_run();
        change(&mut cfg);
        cfg
    };
    let [rewards, mask, caps, width, algo] = [
        "[1] dense subtree rewards vs single terminal reward:",
        "[2] partition mask: top-node only vs anywhere:",
        "[3] rollout truncation (Table 1 sweep):",
        "[4] model size (Table 1 note: 64 units degrade learning):",
        "[5] PPO vs Q-learning (the paper tried Q-learning, \"did not perform as well\"):",
    ];
    let mut runs = vec![
        (rewards, "dense rewards (paper)".into(), time_run()),
        (rewards, "terminal-only rewards (strawman)".into(), with(&|c| c.dense_rewards = false)),
        (mask, "top-node partitions (paper)".into(), time_run()),
        (mask, "partitions anywhere".into(), with(&|c| c.partition_anywhere = true)),
    ];
    for cap in [1000, 5000, 15000] {
        let cfg = with(&|c| c.max_timesteps_per_rollout = cap);
        runs.push((caps, format!("rollout cap {cap}"), cfg));
    }
    for h in [64, 256, 512] {
        runs.push((width, format!("hidden [{h}, {h}]"), with(&|c| c.hidden = [h, h])));
    }
    runs.push((algo, "PPO (paper)".into(), time_run()));
    runs.push((algo, "Q-learning (Boltzmann)".into(), with(&|c| c.use_qlearning = true)));
    runs
}

/// A NeuroCuts row's run: its configuration, the timesteps it consumed,
/// and whether its tree is the greedy fallback (no rollout completed a
/// tree).
struct Run {
    config: NeuroCutsConfig,
    timesteps: usize,
    greedy: bool,
}

/// One row of the table: a baseline's tree, or one run's deployed tree.
struct Row {
    label: String,
    family: ClassifierFamily,
    algo: &'static str,
    /// `None` for a baseline.
    run: Option<Run>,
    stats: TreeStats,
    mismatches: usize,
}

impl Row {
    /// The row as written to `BENCH_repro.json`; a baseline's run
    /// fields are `null`.
    fn json(&self) -> Value {
        let run = self.run.as_ref();
        let cfg = run.map(|r| &r.config);
        let tag = |x: &dyn std::fmt::Debug| format!("{x:?}").to_lowercase();
        let tree = run.map_or("baseline", |r| if r.greedy { "greedy" } else { "rollout" });
        json!({
            "label": self.label, "family": self.family.tag(), "algo": self.algo,
            "c": cfg.map(|c| c.time_space_coeff),
            "partition": cfg.map(|c| tag(&c.partition_mode)),
            "scaling": cfg.map(|c| tag(&c.reward_scaling)),
            "rollout_cap": cfg.map(|c| c.max_timesteps_per_rollout),
            "hidden": cfg.map(|c| c.hidden.to_vec()),
            "dense_rewards": cfg.map(|c| c.dense_rewards),
            "partition_anywhere": cfg.map(|c| c.partition_anywhere),
            "qlearning": cfg.map(|c| c.use_qlearning),
            "seed": cfg.map(|c| c.seed),
            "timesteps": run.map(|r| r.timesteps), "tree": tree,
            "time": self.stats.time, "bytes_per_rule": self.stats.bytes_per_rule,
            "nodes": self.stats.nodes, "mismatches": self.mismatches,
        })
    }

    /// `value` as a table cell, marked `*` when the tree is the greedy
    /// fallback.
    fn cell(&self, value: String) -> String {
        if self.run.as_ref().is_some_and(|r| r.greedy) {
            value + "*"
        } else {
            value
        }
    }
}

/// Every row, looked up by classifier and algorithm or configuration.
struct Table(Vec<Row>);

impl Table {
    fn baseline(&self, label: &str, b: Baseline) -> &Row {
        let found =
            self.0.iter().find(|r| r.label == label && r.run.is_none() && r.algo == b.name());
        found.expect("every baseline is built for every classifier")
    }

    fn find_run(&self, label: &str, cfg: &NeuroCutsConfig) -> Option<&Row> {
        self.0.iter().find(|r| r.label == label && r.run.as_ref().is_some_and(|r| r.config == *cfg))
    }

    fn run(&self, label: &str, cfg: &NeuroCutsConfig) -> &Row {
        self.find_run(label, cfg).expect("every configuration is trained")
    }
}

/// Build the baselines and train every distinct configuration on each
/// classifier, checking each tree against the linear scan.
fn run_table(suite: &[nc_bench::SuiteEntry], ablation_label: Option<&str>) -> Table {
    let mut table = Table(Vec::new());
    for entry in suite {
        let trace = generate_trace(&entry.rules, &TraceConfig::new(TRACE).with_seed(SEED));
        let truth: Vec<Option<usize>> = trace.iter().map(|p| entry.rules.classify(p)).collect();
        let mismatches = |tree: &DecisionTree| {
            trace.iter().zip(&truth).filter(|&(p, t)| tree.classify(p) != *t).count()
        };
        let row = |algo, run, tree: &DecisionTree, stats| Row {
            label: entry.label.clone(),
            family: entry.family,
            algo,
            run,
            stats,
            mismatches: mismatches(tree),
        };
        for b in FIGURE_BASELINES {
            let tree = b.build_tree(&entry.rules);
            table.0.push(row(b.name(), None, &tree, TreeStats::compute(&tree)));
        }

        let mut configs = vec![time_run(), space_run()];
        configs.extend(SWEEP.map(sweep_run));
        if ablation_label == Some(entry.label.as_str()) {
            configs.extend(ablations().into_iter().map(|(_, _, cfg)| cfg));
        }
        for config in configs {
            if table.find_run(&entry.label, &config).is_some() {
                continue;
            }
            let start = Instant::now();
            let mut trainer =
                Trainer::new(entry.rules.clone(), config.clone()).expect("trainable rule set");
            let (tree, stats, timesteps) =
                trainer.train_to_tree().expect("training makes progress");
            let greedy = trainer.env().best().is_none();
            let r = row("NeuroCuts", Some(Run { config, timesteps, greedy }), &tree, stats);
            let line = serde_json::to_string(&r.json()).expect("a row serialises");
            eprintln!("{:>6.1}s {line}", start.elapsed().as_secs_f64());
            table.0.push(r);
        }
    }
    table
}

/// One metric of every classifier's four baselines and of its run under
/// `cfg`, then NeuroCuts' median improvement over each baseline beside
/// the paper's.
fn versus_baselines(
    t: &Table,
    labels: &[&str],
    cfg: &NeuroCutsConfig,
    metric: Metric,
    digits: usize,
    what: &str,
    paper: [&str; 4],
) {
    let names: Vec<String> = FIGURE_BASELINES.iter().map(|b| b.name().to_string()).collect();
    print_row("classifier", &[names, vec!["NeuroCuts".to_string()]].concat());
    let mut gains = vec![Vec::new(); FIGURE_BASELINES.len()];
    for &label in labels {
        let nc = t.run(label, cfg);
        let mut cells = Vec::new();
        for (i, &b) in FIGURE_BASELINES.iter().enumerate() {
            let v = metric(&t.baseline(label, b).stats);
            gains[i].push(improvement(metric(&nc.stats), v));
            cells.push(format!("{v:.digits$}"));
        }
        cells.push(nc.cell(format!("{:.digits$}", metric(&nc.stats))));
        print_row(label, &cells);
    }
    println!("\n--- medians ---");
    for ((b, gain), paper) in FIGURE_BASELINES.iter().zip(&gains).zip(paper) {
        println!(
            "NeuroCuts vs {:<10} median {what} improvement: {:>7.1}%  (paper: {paper})",
            b.name(),
            median(gain) * 100.0
        );
    }
}

fn fig8(t: &Table, labels: &[&str]) {
    println!("\nFigure 8: classification time (tree depth), time-optimised NeuroCuts\n");
    let cfg = time_run();
    versus_baselines(t, labels, &cfg, |s| s.time as f64, 0, "time", ["20%", "38%", "52%", "56%"]);
    // (NeuroCuts, best baseline) per classifier.
    let pairs: Vec<(usize, usize)> = labels
        .iter()
        .map(|&label| {
            let best = FIGURE_BASELINES.iter().map(|&b| t.baseline(label, b).stats.time).min();
            (t.run(label, &cfg).stats.time, best.expect("four baselines"))
        })
        .collect();
    let beat = pairs.iter().filter(|(nc, best)| nc <= best).count();
    let vs_best: Vec<f64> =
        pairs.iter().map(|&(nc, best)| improvement(nc as f64, best as f64)).collect();
    println!(
        "beats the min of all baselines on {beat}/{} classifiers ({:.0}%; paper: 70%)",
        labels.len(),
        100.0 * beat as f64 / labels.len() as f64
    );
    println!(
        "median all-baseline improvement: {:.1}% (paper: 18%), mean {:.1}% (paper: 12%)",
        median(&vs_best) * 100.0,
        vs_best.iter().sum::<f64>() / vs_best.len() as f64 * 100.0
    );
}

fn fig9(t: &Table, labels: &[&str]) {
    println!("\nFigure 9: memory footprint (bytes/rule), space-optimised NeuroCuts\n");
    let paper = [">>0%", ">>0%", "~40%", "-26%"];
    versus_baselines(t, labels, &space_run(), |s| s.bytes_per_rule, 1, "space", paper);
}

fn fig10(t: &Table, labels: &[&str]) {
    println!("\nFigure 10: NeuroCuts (EffiCuts partitioner, Fig. 9's run) vs EffiCuts\n");
    let cfg = space_run();
    let bar = |imp: f64| {
        let n = (imp.abs() * 40.0).round() as usize;
        std::iter::repeat_n(if imp >= 0.0 { '+' } else { '-' }, n.min(60)).collect::<String>()
    };
    let rankings: [(&str, Metric, &str); 2] = [
        ("(a) space improvement (1 - NeuroCuts/EffiCuts), sorted:", |s| s.bytes_per_rule, "29%"),
        ("(b) time improvement, sorted:", |s| s.time as f64, "~0%, 'about the same'"),
    ];
    for (title, metric, paper) in rankings {
        let mut gains: Vec<(&str, f64)> = labels
            .iter()
            .map(|&label| {
                let nc = metric(&t.run(label, &cfg).stats);
                (label, improvement(nc, metric(&t.baseline(label, Baseline::EffiCuts).stats)))
            })
            .collect();
        gains.sort_by(|a, b| b.1.total_cmp(&a.1));
        println!("{title}");
        for (label, imp) in &gains {
            println!("  {label:<12} {:>7.1}%  {}", imp * 100.0, bar(*imp));
        }
        let med = median(&gains.iter().map(|g| g.1).collect::<Vec<_>>());
        println!("  median: {:.1}% (paper: {paper})\n", med * 100.0);
    }
}

fn fig11(t: &Table, labels: &[&str]) {
    println!("Figure 11: time-space tradeoff (simple partitioner, log scaling)\n");
    println!("{:>5} | {:>12} | {:>14}", "c", "median time", "median bytes/rule");
    println!("{:->5}-+-{:->12}-+-{:->14}", "", "", "");
    let series: Vec<(f64, f64)> = SWEEP
        .iter()
        .map(|&c| {
            let cfg = sweep_run(c);
            let stat = |f: Metric| {
                median(&labels.iter().map(|&l| f(&t.run(l, &cfg).stats)).collect::<Vec<_>>())
            };
            let (time, space) = (stat(|s| s.time as f64), stat(|s| s.bytes_per_rule));
            println!("{c:>5.1} | {time:>12.1} | {space:>14.1}");
            (time, space)
        })
        .collect();
    let (first, last) = (series[0], series[SWEEP.len() - 1]);
    println!("\ntime at c=1 vs c=0: {:.2}x better (paper: ~2x)", first.0 / last.0.max(1e-9));
    println!("bytes/rule at c=0 vs c=1: {:.2}x better (paper: ~2x)", last.1 / first.1.max(1e-9));
}

fn print_ablations(t: &Table, label: &str) {
    println!("\nablations on {label}, time run with one change each\n");
    let mut heading = "";
    for (group, name, cfg) in ablations() {
        if group != heading {
            println!("{group}");
            heading = group;
        }
        let r = t.run(label, &cfg);
        println!(
            "  {name:<34} time={:<4} bytes/rule={:<10.1} nodes={}",
            r.cell(r.stats.time.to_string()),
            r.stats.bytes_per_rule,
            r.stats.nodes
        );
    }
}

fn main() {
    // Every knob is read here, before anything is built or trained.
    let (size, timesteps) = (suite_size(), train_timesteps());
    let suite = suite();
    let labels: Vec<&str> = suite.iter().map(|e| e.label.as_str()).collect();
    let mut report = Report::new(
        "repro",
        json!({
            "size": size, "timesteps": timesteps, "seed": SEED, "trace": TRACE,
            "classifiers": labels,
        }),
    );
    // The ablations run on the first ACL classifier, acl1.
    let ablation_label =
        suite.iter().find(|e| e.family == ClassifierFamily::Acl).map(|e| e.label.as_str());
    eprintln!(
        "bench_repro: {} classifiers at {size} rules, {timesteps} timesteps per run",
        suite.len()
    );

    let table = run_table(&suite, ablation_label);
    for r in &table.0 {
        report.check(
            r.mismatches == 0,
            format!(
                "{} {}: {} of {TRACE} packets diverged from the linear scan",
                r.label, r.algo, r.mismatches
            ),
        );
    }
    report.set("rows", table.0.iter().map(Row::json).collect::<Vec<_>>());
    println!("{} classifiers at {size} rules, {timesteps} RL timesteps per run", labels.len());
    fig8(&table, &labels);
    fig9(&table, &labels);
    fig10(&table, &labels);
    fig11(&table, &labels);
    match ablation_label {
        Some(label) => print_ablations(&table, label),
        None => println!("\nno ACL classifier in the suite: no ablations"),
    }
    report.finish();
}
