//! Set-up: rules, traces and the trained classifier every workload
//! starts from, plus the fingerprints that identify a run's inputs.
//!
//! The rule set and the training seed are fixed, so every run of every
//! seed deploys the same tree: tree shape, set-up work and memory stay
//! comparable across seeds. The run's seed varies the traffic and the
//! update stream.

use crate::cpu;
use crate::tracer::Tracer;
use classbench::{
    generate_rules, generate_skewed_trace, ClassifierFamily, GeneratorConfig, Packet, RuleSet,
    SkewedTraceConfig, TrafficSkew,
};
use dtree::{DecisionTree, TreeStats};
use neurocuts::{NeuroCutsConfig, TrainReport, Trainer};
use std::sync::Arc;

/// Generator seed of the benchmark's rule set.
pub const RULE_SEED: u64 = 0;
/// Training seed of every classifier the benchmark trains.
pub const TRAIN_SEED: u64 = 0;

/// Workload sizes. [`Scale::full`] is what the benchmark measures;
/// [`Scale::tiny`] keeps the self-tests fast.
#[derive(Debug, Clone)]
pub struct Scale {
    /// ACL rules in the classifier.
    pub rules: usize,
    /// Training budget of the deployed (width-64) classifier.
    pub setup_timesteps: usize,
    /// Set-ups per `serve` run (`train` makes half as many);
    /// `setup_s` is their median.
    pub setup_reps: usize,
    /// Packets in each traffic trace.
    pub trace_len: usize,
    /// Packets per served batch.
    pub batch: usize,
    /// Packets the post-round correctness checks classify.
    pub check_len: usize,
    /// Updates per churn round.
    pub churn_updates: usize,
    /// Training budget of the `train` workload's paper-width runs.
    pub train_timesteps: usize,
    /// Hidden widths of the `train` workload's policy.
    pub train_hidden: [usize; 2],
}

impl Scale {
    /// The measured configuration.
    pub fn full() -> Scale {
        Scale {
            rules: 300,
            setup_timesteps: 2000,
            setup_reps: 8,
            trace_len: 1 << 16,
            batch: 1024,
            check_len: 4096,
            churn_updates: 1000,
            train_timesteps: 6000,
            train_hidden: [512, 512],
        }
    }

    /// A seconds-scale configuration for self-tests.
    pub fn tiny() -> Scale {
        Scale {
            rules: 60,
            setup_timesteps: 600,
            setup_reps: 2,
            trace_len: 2048,
            batch: 64,
            check_len: 256,
            churn_updates: 500,
            train_timesteps: 600,
            train_hidden: [32, 32],
        }
    }

    /// The rule generator configuration.
    pub fn rule_config(&self) -> GeneratorConfig {
        GeneratorConfig::new(ClassifierFamily::Acl, self.rules).with_seed(RULE_SEED)
    }

    /// Training configuration of the deployed classifier: one worker
    /// thread, so set-up cost does not depend on the host's core count
    /// (results never depend on it).
    pub fn setup_config(&self) -> NeuroCutsConfig {
        let mut cfg = NeuroCutsConfig::small(self.setup_timesteps).with_seed(TRAIN_SEED);
        cfg.workers = 1;
        cfg
    }

    /// Training configuration of the `train` workload: paper width, no
    /// early stopping, so every run spends the same budget.
    pub fn train_config(&self) -> NeuroCutsConfig {
        let mut cfg = NeuroCutsConfig::small(self.train_timesteps).with_seed(TRAIN_SEED);
        cfg.hidden = self.train_hidden;
        cfg.patience = 0;
        // One worker, as at set-up: rollout workers meet at a barrier
        // every round, so on a shared host each round waits for the most
        // delayed of them. The trained tree is the same for any count.
        cfg.workers = 1;
        cfg
    }
}

/// Derive an independent sub-seed for one input stream of a run
/// (splitmix64 over the run seed and a stream tag).
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A trace of `len` packets under `skew`, seeded from stream `stream`
/// of the run seed.
pub fn trace(
    rules: &RuleSet,
    len: usize,
    skew: TrafficSkew,
    seed: u64,
    stream: u64,
    t: &mut Tracer,
) -> Vec<Packet> {
    let cfg = SkewedTraceConfig::new(len, skew).with_seed(sub_seed(seed, stream));
    t.time("classbench.generate_trace", stream, len as u64, || generate_skewed_trace(rules, &cfg))
}

/// FNV-1a of the tree's statistics: the fingerprint that tells two runs
/// built the same classifier.
pub fn stats_hash(stats: &TreeStats) -> u64 {
    format!("{stats:?}").bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A classifier trained and ready to serve.
pub struct Deployed {
    /// The rules it classifies.
    pub rules: RuleSet,
    /// The trained tree.
    pub tree: Arc<DecisionTree>,
    /// Its statistics.
    pub stats: TreeStats,
    /// The training run's report (iterations, timesteps).
    pub report: TrainReport,
    /// Process CPU seconds `Trainer::train` took.
    pub train_s: f64,
}

impl Deployed {
    /// Env-steps per CPU second of the training run.
    pub fn train_steps_per_s(&self) -> f64 {
        self.report.timesteps as f64 / self.train_s
    }
}

/// Generate the rules and train `cfg`'s classifier on them.
pub fn deploy(scale: &Scale, cfg: &NeuroCutsConfig, t: &mut Tracer) -> Result<Deployed, String> {
    let rules = t.time("classbench.generate_rules", 0, scale.rules as u64, || {
        generate_rules(&scale.rule_config())
    });
    let mut trainer = Trainer::new(rules.clone(), cfg.clone()).map_err(|e| e.to_string())?;
    let (report, train_s) = cpu::timed(|| t.time("core.trainer.train", 0, 0, || trainer.train()));
    let report = report.map_err(|e| e.to_string())?;
    let best = report.best.clone().ok_or("training completed no tree")?;
    Ok(Deployed { rules, tree: best.tree, stats: best.stats, report, train_s })
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_seeds_differ_by_stream_and_seed() {
        assert_ne!(sub_seed(1, 1), sub_seed(1, 2));
        assert_ne!(sub_seed(1, 1), sub_seed(2, 1));
        assert_eq!(sub_seed(7, 3), sub_seed(7, 3));
    }
}
