//! `bench_train` — machine-readable training-pipeline benchmark.
//!
//! Measures the actor-learner pipeline end to end and writes
//! `BENCH_train.json`:
//!
//! 1. **Rollout collection throughput** (env-steps/sec) under a frozen
//!    random policy of the vectorised collector (`neurocuts::VecEnv`:
//!    lockstep envs, one batched matrix-matrix forward per step): the
//!    *serial* row runs one env slot, so one episode at a time with a
//!    one-row forward per decision, against N slots at 1 and N workers.
//! 2. **A full training run** (`Trainer`, the vectorised collector +
//!    PPO), reporting steps/sec and the best objective (`null` when no
//!    rollout completed a tree).
//! 3. **The train → compile → serve hand-off**: the trained tree is
//!    compiled to a serving snapshot, verified packet-for-packet against the
//!    linear-scan ground truth (any mismatch exits non-zero — the
//!    numbers must never outlive correctness), and served sharded
//!    across the hardware threads (`Snapshot::classify_sharded`) for
//!    an end-to-end Mpps figure.
//! 4. **Quality vs hand-tuned baselines**: depth/time, nodes, and
//!    bytes-per-rule against HiCuts and EffiCuts on the same rules.
//!
//! The scale is fixed (ACL-300 rules, 4000 env-steps per collection
//! measurement, 8 lockstep envs, a 6000-timestep training run, 4096
//! verification packets) so every run compares with the committed
//! baseline. Environment:
//!
//! | variable | meaning | default |
//! |---|---|---|
//! | `NC_BENCH_WORKERS` | worker threads for the parallel row and the training run | hw threads |
//! | `NC_BENCH_OUT` | output path | `BENCH_train.json` |
//!
//! The collection rows run the paper's production model width
//! (`[512, 512]`, Table 1) rather than the quick `small()` training
//! config: batching policy inference pays off in proportion to the
//! network width (each weight matrix is streamed once per *batch*
//! instead of once per observation, and on multi-core hosts the
//! lockstep rounds split across workers). `bench_build`'s `[64, 64]`
//! row shows the opposite regime, where the env-side tree mutation
//! dominates.

use baselines::{classifier::timed, Baseline};
use classbench::{generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, TraceConfig};
use dtree::{ClassifierHandle, DecisionTree, RebuildPolicy, TreeStats};
use nc_bench::emit::{best_of, hw_threads, knob, Report};
use neurocuts::{NeuroCutsConfig, NeuroCutsEnv, Trainer, VecEnv};
use nn::{NetConfig, PolicyValueNet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::time::Instant;

const SIZE: usize = 300;
const TIMESTEPS: usize = 6000;
const SAMPLES: usize = 4000;
const ENVS: usize = 8;
const HIDDEN: usize = 512;
const TRACE: usize = 4096;

fn main() {
    let hw_threads = hw_threads();
    let workers = knob("NC_BENCH_WORKERS", hw_threads).max(1);

    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, SIZE).with_seed(1));
    let trace = generate_trace(&rules, &TraceConfig::new(TRACE).with_seed(2));
    eprintln!(
        "bench_train: acl/{SIZE} rules, {SAMPLES} steps/collection ([{HIDDEN}, {HIDDEN}] \
         policy), {ENVS} envs, {workers} workers, {TIMESTEPS} train timesteps, \
         {hw_threads} hardware thread(s)"
    );
    let mut report = Report::new(
        "train",
        json!({
            "family": "acl", "size": SIZE, "samples": SAMPLES, "envs": ENVS, "workers": workers,
            "timesteps": TIMESTEPS, "trace": trace.len(), "hw_threads": hw_threads,
            "rule_seed": 1, "trace_seed": 2,
        }),
    );

    // Collection throughput under a frozen random policy. The policy
    // size matches the training config below so the comparison is the
    // one the trainer actually experiences.
    let cfg = NeuroCutsConfig::small(TIMESTEPS);
    let env = NeuroCutsEnv::new(rules.clone(), cfg.clone());
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let net = PolicyValueNet::new(
        NetConfig {
            obs_dim: env.encoder.obs_dim(),
            dim_actions: env.action_space.dim_actions(),
            num_actions: env.action_space.num_actions(),
            hidden: [HIDDEN, HIDDEN],
        },
        &mut rng,
    );

    // (path, envs, workers); on one hardware thread the two vecenv rows
    // would be identical, so the second runs only with more workers.
    let mut modes = vec![("serial", 1, 1), ("vecenv", ENVS, 1)];
    if workers > 1 {
        modes.push(("vecenv", ENVS, workers));
    }
    let mut collect = Vec::new();
    let mut rates = Vec::new();
    for (path, envs, w) in modes {
        let (steps, secs) = best_of(
            3,
            || {
                env.reset_best();
                VecEnv::new(env.clone(), envs, 10).collect(&net, SAMPLES, w).len()
            },
            |&steps| steps,
        );
        let sps = steps as f64 / secs;
        eprintln!(
            "{path:<8} envs {envs:>2}  workers {w:>2}  {steps:>7} steps in {secs:>6.2}s  \
             {sps:>9.0} steps/s"
        );
        rates.push(sps);
        collect.push(json!({
            "path": path, "envs": envs, "workers": w, "env_steps": steps, "secs": secs,
            "steps_per_sec": sps,
        }));
    }
    let speedup = rates[1..].iter().fold(0.0f64, |a, &b| a.max(b)) / rates[0];
    eprintln!("vectorised/serial collection speedup: {speedup:.2}x");
    report.set("collect", collect);
    report.set("collect_speedup", speedup);

    // Full training run: the production path (vecenv + PPO).
    let mut train_cfg = cfg;
    train_cfg.num_envs = ENVS;
    train_cfg.workers = workers;
    let mut trainer = Trainer::new(rules.clone(), train_cfg).expect("trainable rule set");
    let train_start = Instant::now();
    let trained = trainer.train().expect("training makes progress");
    let train_secs = train_start.elapsed().as_secs_f64().max(1e-9);
    let train_sps = trained.timesteps as f64 / train_secs;
    let (tree, stats) = trainer.deployed_tree();
    let best_objective = trained.history.last().map_or(f64::INFINITY, |h| h.best_objective);
    eprintln!(
        "trained {} steps in {train_secs:.2}s ({train_sps:.0} steps/s, {} iterations), best \
         tree: {stats}",
        trained.timesteps,
        trained.history.len()
    );
    report.set(
        "train",
        json!({
            "timesteps": trained.timesteps, "iterations": trained.history.len(),
            "secs": train_secs, "steps_per_sec": train_sps, "best_objective": best_objective,
        }),
    );

    // Train → compile → serve: verify, then measure the engine.
    let snap = ClassifierHandle::new(DecisionTree::clone(&tree), RebuildPolicy::never()).snapshot();
    let mismatches = trace
        .iter()
        .filter(|p| {
            let got = snap.flat().classify_checked(&tree, p).expect("fresh compile is never stale");
            got != rules.classify(p)
        })
        .count();
    report.check(
        mismatches == 0,
        format!("trained tree diverged from the linear scan on {mismatches} packets"),
    );
    const PASSES: usize = 8;
    let mut out = vec![None; trace.len()];
    let ((), secs) = timed(|| {
        for _ in 0..PASSES {
            snap.classify_sharded(&trace, &mut out, hw_threads);
        }
    });
    let pps = (trace.len() * PASSES) as f64 / secs;
    eprintln!(
        "trained tree vs linear scan: {mismatches} of {} packets mismatch; serving engine \
         {hw_threads}t {:.2} Mpps",
        trace.len(),
        pps / 1e6
    );
    report.set(
        "serve",
        json!({
            "verified_packets": trace.len(), "mismatches": mismatches,
            "engine_threads": hw_threads, "engine_pkts_per_sec": pps,
        }),
    );

    // Quality vs the hand-tuned baselines on the same rules.
    let hicuts = TreeStats::compute(&Baseline::HiCuts.build_tree(&rules));
    let efficuts = TreeStats::compute(&Baseline::EffiCuts.build_tree(&rules));
    eprintln!(
        "NeuroCuts depth {} vs HiCuts {} / EffiCuts {}",
        stats.max_depth, hicuts.max_depth, efficuts.max_depth
    );
    let trees =
        [("NeuroCuts", &stats), ("HiCuts", &hicuts), ("EffiCuts", &efficuts)].map(|(algo, s)| {
            json!({
                "algo": algo, "time": s.time, "max_depth": s.max_depth, "nodes": s.nodes,
                "bytes": s.bytes, "bytes_per_rule": s.bytes_per_rule,
            })
        });
    report.set("trees", trees);
    report.finish();
}
