//! `bench_build` — machine-readable tree-construction benchmark.
//!
//! `bench_train` tracks the whole actor-learner pipeline; this emitter
//! isolates the **build path** the arena-backed rule store optimises:
//! episode construction (the per-decision tree mutation work that
//! dominates training time) and the hand-tuned baseline builders, all
//! on the same rules.
//!
//! 1. **Episode construction throughput** for NeuroCuts under a frozen
//!    random policy at the two model widths that bracket the regimes:
//!    `[64, 64]` (env-side tree work dominates) and `[512, 512]` (the
//!    paper's production width, where the batched policy forward
//!    shares the bill). Reported as env-steps/sec *and* episodes/sec.
//! 2. **Baseline build times** for HiCuts, HyperCuts, EffiCuts, and
//!    CutSplit — the same single-pass assignment kernels drive their
//!    `simulate_*` probes and expansions.
//! 3. **Ground truth**: every tree the benchmark touches (one episode
//!    tree per width, every baseline) is verified packet-for-packet
//!    against the rule set's linear scan; any mismatch exits non-zero,
//!    so the numbers can never outlive correctness.
//!
//! The scale is fixed (ACL-300 rules, 4000 env-steps per measurement,
//! 8 lockstep envs, 4096 verification packets, best of 3) so every run
//! compares with the committed baseline; `NC_BENCH_OUT` sets the
//! output path (default `BENCH_build.json`).
//!
//! CI gates the fresh `steps_per_sec` and `episodes_per_sec` against
//! the committed `BENCH_build.json` with `bench_gate`.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, Packet, RuleSet, TraceConfig,
};
use dtree::{DecisionTree, TreeStats};
use nc_bench::emit::{best_of, Report};
use neurocuts::{NeuroCutsConfig, NeuroCutsEnv, VecEnv};
use nn::{NetConfig, PolicyValueNet};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;

const SIZE: usize = 300;
const SAMPLES: usize = 4000;
const ENVS: usize = 8;
const TRACE: usize = 4096;
const REPS: usize = 3;

/// Verify a tree against the rule set's linear scan over `trace`;
/// returns the number of mismatching packets.
fn verify(tree: &DecisionTree, rules: &RuleSet, trace: &[Packet]) -> usize {
    trace.iter().filter(|p| tree.classify(p) != rules.classify(p)).count()
}

fn main() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, SIZE).with_seed(1));
    let trace = generate_trace(&rules, &TraceConfig::new(TRACE).with_seed(2));
    eprintln!(
        "bench_build: acl/{SIZE} rules, {SAMPLES} steps/measurement, {ENVS} envs, {} \
         verification packets, best of {REPS}",
        trace.len()
    );
    let mut report = Report::new(
        "build",
        json!({
            "family": "acl", "size": SIZE, "samples": SAMPLES, "envs": ENVS,
            "trace": trace.len(), "reps": REPS, "rule_seed": 1, "trace_seed": 2,
        }),
    );
    let mut mismatches = 0usize;

    // Episode-construction throughput at both model widths. The policy
    // is frozen and random (seeded net), so the work measured is the
    // env side plus one batched forward per lockstep round — exactly
    // what one training iteration's collection phase does.
    let cfg = NeuroCutsConfig::small(10_000);
    let mut rows = Vec::new();
    for hidden in [64usize, 512] {
        let env = NeuroCutsEnv::new(rules.clone(), cfg.clone());
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let net = PolicyValueNet::new(
            NetConfig {
                obs_dim: env.encoder.obs_dim(),
                dim_actions: env.action_space.dim_actions(),
                num_actions: env.action_space.num_actions(),
                hidden: [hidden, hidden],
            },
            &mut rng,
        );
        let ((steps, episodes), secs) = best_of(
            REPS,
            || {
                env.reset_best();
                let batch = VecEnv::new(env.clone(), ENVS, 10).collect(&net, SAMPLES, 1);
                (batch.len(), batch.episodes)
            },
            |&(steps, _)| steps,
        );
        // Ground-truth the trees this policy actually builds: the best
        // completed episode of the last collection.
        let best_tree = env.best().expect("collection completed at least one episode");
        mismatches += verify(&best_tree.tree, &rules, &trace);
        let (sps, eps) = (steps as f64 / secs, episodes as f64 / secs);
        eprintln!(
            "neurocuts [{hidden:>3},{hidden:>3}]  envs {ENVS:>2}  {steps:>7} steps / \
             {episodes:>5} episodes in {secs:>6.2}s  {sps:>9.0} steps/s  {eps:>7.1} episodes/s"
        );
        rows.push(json!({
            "hidden": hidden, "envs": ENVS, "env_steps": steps, "episodes": episodes,
            "secs": secs, "steps_per_sec": sps, "episodes_per_sec": eps,
        }));
    }
    report.set("neurocuts", rows);

    // Baseline builders, best of REPS, each verified.
    let mut rows = Vec::new();
    for algo in ["HiCuts", "HyperCuts", "EffiCuts", "CutSplit"] {
        let (tree, secs) = best_of(REPS, || nc_bench::build_baseline(algo, &rules), |_| 1);
        mismatches += verify(&tree, &rules, &trace);
        let stats = TreeStats::compute(&tree);
        eprintln!(
            "{algo:<10} built in {secs:>8.4}s  ({:>7.1} builds/s)  nodes {:>6}  depth {:>2}",
            1.0 / secs,
            stats.nodes,
            stats.max_depth
        );
        rows.push(json!({
            "algo": algo, "secs": secs, "builds_per_sec": 1.0 / secs, "nodes": stats.nodes,
            "max_depth": stats.max_depth,
        }));
    }
    report.set("baselines", rows);

    eprintln!("{mismatches} of {} packets per tree diverged from the linear scan", trace.len());
    report.set("verified", json!({"packets_per_tree": trace.len(), "mismatches": mismatches}));
    report.check(
        mismatches == 0,
        format!("{mismatches} packets diverged from the linear-scan ground truth"),
    );
    report.finish();
}
