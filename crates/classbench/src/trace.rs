//! Packet-trace generation biased towards the rule set, mirroring
//! ClassBench's `trace_generator`.
//!
//! Real evaluation traffic overwhelmingly hits the installed rules, so
//! traces are built by picking a rule (Pareto-skewed, like ClassBench's
//! locality knob) and sampling a header inside its hypercube; a small
//! configurable fraction of headers is drawn uniformly from the full
//! space to exercise default-rule paths.

use crate::dim::DIMS;
use crate::packet::Packet;
use crate::range::DimRange;
use crate::ruleset::RuleSet;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;

/// Configuration for [`generate_trace`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Number of packets to produce.
    pub length: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of headers drawn uniformly from the whole space instead
    /// of from a rule (default 0.05).
    pub uniform_fraction: f64,
    /// Pareto shape for rule popularity; larger = more skew towards
    /// high-priority rules (default 1.0; 0 disables skew).
    pub skew: f64,
}

impl TraceConfig {
    /// A trace of `length` packets with default skew and seed 0.
    pub fn new(length: usize) -> Self {
        TraceConfig { length, seed: 0, uniform_fraction: 0.05, skew: 1.0 }
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn sample_in_range(rng: &mut impl Rng, r: &DimRange) -> u64 {
    if r.len() <= 1 {
        r.lo
    } else {
        rng.gen_range(r.lo..r.hi)
    }
}

/// Sample a header uniformly inside `rule`'s hypercube.
pub fn sample_packet_in_rule(rng: &mut impl Rng, rule: &crate::rule::Rule) -> Packet {
    let mut values = [0u64; 5];
    for (v, r) in values.iter_mut().zip(rule.ranges.iter()) {
        *v = sample_in_range(rng, r);
    }
    Packet { values }
}

/// Generate a packet trace biased towards `rules` (see module docs).
///
/// # Panics
/// Panics if `rules` is empty.
pub fn generate_trace(rules: &RuleSet, cfg: &TraceConfig) -> Vec<Packet> {
    assert!(!rules.is_empty(), "cannot build a trace for an empty rule set");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x7472_6163); // "trac"
    let n = rules.len();
    (0..cfg.length)
        .map(|_| {
            if rng.gen::<f64>() < cfg.uniform_fraction {
                Packet::new(
                    rng.gen_range(0..1u64 << 32),
                    rng.gen_range(0..1u64 << 32),
                    rng.gen_range(0..1u64 << 16),
                    rng.gen_range(0..1u64 << 16),
                    rng.gen_range(0..256),
                )
            } else {
                // Pareto-skewed rule index: u^(1/(1+skew)) concentrates
                // mass near 0 (the high-priority rules).
                let u = rng.gen::<f64>();
                let idx = if cfg.skew > 0.0 {
                    ((u.powf(1.0 + cfg.skew)) * n as f64) as usize
                } else {
                    (u * n as f64) as usize
                }
                .min(n - 1);
                sample_packet_in_rule(&mut rng, rules.rule(idx))
            }
        })
        .collect()
}

/// Traffic-skew models for [`generate_skewed_trace`] — the scenario
/// axis of the `bench_sweep` matrix.
///
/// Real classifier traffic is rarely uniform over the installed rules:
/// a few flows dominate (Zipf popularity) and packets of one flow
/// arrive back-to-back (temporal locality). Each model below biases
/// *which rule* a packet is sampled inside; the header is then drawn
/// uniformly from that rule's hypercube, so every non-uniform packet
/// matches an installed rule by construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TrafficSkew {
    /// Every rule equally likely — the control cell.
    Uniform,
    /// Zipf-over-matched-rules: the rule at popularity rank `k`
    /// (priority order, rank 0 = highest priority) is drawn with
    /// probability ∝ `1 / (k + 1)^exponent`.
    Zipf {
        /// Zipf exponent; 1.0 is the classic heavy tail. Must be > 0.
        exponent: f64,
    },
    /// Locality bursts: a small working set of rules serves runs of
    /// consecutive packets before one member rotates out — flow-level
    /// temporal locality.
    LocalityBurst {
        /// Rules in the active working set (≥ 1).
        working_set: usize,
        /// Consecutive packets drawn from one rule per burst (≥ 1).
        burst: usize,
    },
}

impl TrafficSkew {
    /// The default Zipf cell (`exponent = 1.0`).
    pub const ZIPF: TrafficSkew = TrafficSkew::Zipf { exponent: 1.0 };
    /// The default locality cell (16-rule working set, 32-packet
    /// bursts).
    pub const LOCALITY: TrafficSkew = TrafficSkew::LocalityBurst { working_set: 16, burst: 32 };

    /// Parse a sweep tag: `uniform`, `zipf` (optionally `zipf:EXP`),
    /// or `locality` (optionally `locality:SET x BURST`, e.g.
    /// `locality:8x64`). Returns `None` for anything else.
    pub fn parse(tag: &str) -> Option<TrafficSkew> {
        let tag = tag.trim();
        if tag == "uniform" {
            return Some(TrafficSkew::Uniform);
        }
        if tag == "zipf" {
            return Some(TrafficSkew::ZIPF);
        }
        if let Some(exp) = tag.strip_prefix("zipf:") {
            let exponent: f64 = exp.parse().ok()?;
            return (exponent > 0.0).then_some(TrafficSkew::Zipf { exponent });
        }
        if tag == "locality" {
            return Some(TrafficSkew::LOCALITY);
        }
        if let Some(spec) = tag.strip_prefix("locality:") {
            let (set, burst) = spec.split_once('x')?;
            let working_set: usize = set.parse().ok()?;
            let burst: usize = burst.parse().ok()?;
            return (working_set >= 1 && burst >= 1)
                .then_some(TrafficSkew::LocalityBurst { working_set, burst });
        }
        None
    }

    /// The bare tag naming this skew family (`uniform` / `zipf` /
    /// `locality`), as the sweep JSON records it.
    pub fn tag(&self) -> &'static str {
        match self {
            TrafficSkew::Uniform => "uniform",
            TrafficSkew::Zipf { .. } => "zipf",
            TrafficSkew::LocalityBurst { .. } => "locality",
        }
    }
}

/// Configuration for [`generate_skewed_trace`].
#[derive(Debug, Clone)]
pub struct SkewedTraceConfig {
    /// Number of packets to produce.
    pub length: usize,
    /// RNG seed; traces are a pure function of (rules, config).
    pub seed: u64,
    /// The skew model.
    pub skew: TrafficSkew,
    /// Fraction of headers drawn uniformly from the whole space
    /// (default-rule traffic), like [`TraceConfig::uniform_fraction`].
    pub uniform_fraction: f64,
}

impl SkewedTraceConfig {
    /// A trace of `length` packets under `skew`, seed 0, 5% full-space
    /// headers.
    pub fn new(length: usize, skew: TrafficSkew) -> Self {
        SkewedTraceConfig { length, seed: 0, skew, uniform_fraction: 0.05 }
    }

    /// Replace the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

fn uniform_packet(rng: &mut impl Rng) -> Packet {
    Packet::new(
        rng.gen_range(0..1u64 << 32),
        rng.gen_range(0..1u64 << 32),
        rng.gen_range(0..1u64 << 16),
        rng.gen_range(0..1u64 << 16),
        rng.gen_range(0..256),
    )
}

/// Generate a packet trace under an explicit [`TrafficSkew`] model
/// (see the enum docs). Seeded and deterministic: the result is a pure
/// function of `(rules, cfg)` — pinned by golden-hash tests.
///
/// # Panics
/// Panics if `rules` is empty or `cfg.length` rules cannot be sampled
/// (degenerate skew parameters are clamped instead: working sets and
/// bursts are at least 1, and working sets never exceed the rule
/// count).
pub fn generate_skewed_trace(rules: &RuleSet, cfg: &SkewedTraceConfig) -> Vec<Packet> {
    assert!(!rules.is_empty(), "cannot build a trace for an empty rule set");
    let mut rng = ChaCha8Rng::seed_from_u64(cfg.seed ^ 0x736b_6577); // "skew"
    let n = rules.len();
    match cfg.skew {
        TrafficSkew::Uniform => (0..cfg.length)
            .map(|_| {
                if rng.gen::<f64>() < cfg.uniform_fraction {
                    uniform_packet(&mut rng)
                } else {
                    let idx = rng.gen_range(0..n);
                    sample_packet_in_rule(&mut rng, rules.rule(idx))
                }
            })
            .collect(),
        TrafficSkew::Zipf { exponent } => {
            // Cumulative Zipf weights over priority ranks; a uniform
            // draw binary-searches its rank. For the default
            // exponent 1.0 the weights are exact IEEE divisions, so
            // golden hashes are platform-stable.
            let mut cumulative = Vec::with_capacity(n);
            let mut total = 0.0f64;
            for k in 0..n {
                let w = if exponent == 1.0 {
                    1.0 / (k + 1) as f64
                } else {
                    ((k + 1) as f64).powf(-exponent)
                };
                total += w;
                cumulative.push(total);
            }
            (0..cfg.length)
                .map(|_| {
                    if rng.gen::<f64>() < cfg.uniform_fraction {
                        uniform_packet(&mut rng)
                    } else {
                        let u = rng.gen::<f64>() * total;
                        let idx = cumulative.partition_point(|&c| c < u).min(n - 1);
                        sample_packet_in_rule(&mut rng, rules.rule(idx))
                    }
                })
                .collect()
        }
        TrafficSkew::LocalityBurst { working_set, burst } => {
            let ws_len = working_set.clamp(1, n);
            let burst = burst.max(1);
            let mut ws: Vec<usize> = (0..ws_len).map(|_| rng.gen_range(0..n)).collect();
            let mut out = Vec::with_capacity(cfg.length);
            while out.len() < cfg.length {
                // One burst: consecutive packets inside one rule of the
                // working set (distinct headers, same flow's rule).
                let rule_idx = ws[rng.gen_range(0..ws_len)];
                let run = burst.min(cfg.length - out.len());
                for _ in 0..run {
                    if rng.gen::<f64>() < cfg.uniform_fraction {
                        out.push(uniform_packet(&mut rng));
                    } else {
                        out.push(sample_packet_in_rule(&mut rng, rules.rule(rule_idx)));
                    }
                }
                // Rotate one working-set member occasionally so the hot
                // set drifts instead of being frozen for the whole trace.
                if rng.gen::<f64>() < 0.25 {
                    ws[rng.gen_range(0..ws_len)] = rng.gen_range(0..n);
                }
            }
            out
        }
    }
}

/// FNV-1a over the wire encoding of a trace — the golden-hash
/// fingerprint the determinism tests and the sweep emitter pin.
pub fn trace_hash(trace: &[Packet]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in trace {
        for b in p.to_wire() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Check that every value of every packet lies inside its dimension span.
pub fn trace_is_valid(trace: &[Packet]) -> bool {
    trace.iter().all(|p| DIMS.iter().all(|&d| p.value(d) < d.span()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate_rules, GeneratorConfig};
    use crate::profiles::ClassifierFamily;

    fn rules() -> RuleSet {
        generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 100).with_seed(1))
    }

    #[test]
    fn trace_has_requested_length_and_is_valid() {
        let trace = generate_trace(&rules(), &TraceConfig::new(500));
        assert_eq!(trace.len(), 500);
        assert!(trace_is_valid(&trace));
    }

    #[test]
    fn trace_is_deterministic() {
        let rs = rules();
        let a = generate_trace(&rs, &TraceConfig::new(100).with_seed(3));
        let b = generate_trace(&rs, &TraceConfig::new(100).with_seed(3));
        assert_eq!(a, b);
        let c = generate_trace(&rs, &TraceConfig::new(100).with_seed(4));
        assert_ne!(a, c);
    }

    #[test]
    fn rule_directed_packets_match_nondefault_rules() {
        let rs = rules();
        let mut cfg = TraceConfig::new(400).with_seed(7);
        cfg.uniform_fraction = 0.0;
        let trace = generate_trace(&rs, &cfg);
        // With zero uniform fraction every packet was sampled inside some
        // rule, so every packet matches (priority may differ from the
        // sampled rule due to overlap, which is fine).
        for p in &trace {
            assert!(rs.classify(p).is_some(), "{p}");
        }
        // Skew means a decent fraction hits the top half of the rule list.
        let top_half_hits = trace.iter().filter(|p| rs.classify(p).unwrap() < rs.len() / 2).count();
        assert!(top_half_hits > trace.len() / 2);
    }

    #[test]
    fn sample_in_rule_always_matches_that_rule() {
        let rs = rules();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for (_, rule) in rs.iter() {
            for _ in 0..5 {
                let p = sample_packet_in_rule(&mut rng, rule);
                assert!(rule.matches(&p), "{p} should match {rule}");
            }
        }
    }

    #[test]
    #[should_panic]
    fn empty_rule_set_panics() {
        let _ = generate_trace(&RuleSet::default(), &TraceConfig::new(1));
    }

    #[test]
    fn skew_tags_parse_and_roundtrip() {
        assert_eq!(TrafficSkew::parse("uniform"), Some(TrafficSkew::Uniform));
        assert_eq!(TrafficSkew::parse("zipf"), Some(TrafficSkew::ZIPF));
        assert_eq!(TrafficSkew::parse("zipf:1.5"), Some(TrafficSkew::Zipf { exponent: 1.5 }));
        assert_eq!(
            TrafficSkew::parse("locality:8x64"),
            Some(TrafficSkew::LocalityBurst { working_set: 8, burst: 64 })
        );
        assert_eq!(TrafficSkew::parse("locality"), Some(TrafficSkew::LOCALITY));
        assert_eq!(TrafficSkew::parse("pareto"), None);
        assert_eq!(TrafficSkew::parse("zipf:-1"), None);
        assert_eq!(TrafficSkew::parse("locality:0x4"), None);
        for skew in [TrafficSkew::Uniform, TrafficSkew::ZIPF, TrafficSkew::LOCALITY] {
            assert_eq!(TrafficSkew::parse(skew.tag()), Some(skew));
        }
    }

    #[test]
    fn skewed_traces_are_seed_deterministic_and_valid() {
        let rs = rules();
        for skew in [TrafficSkew::Uniform, TrafficSkew::ZIPF, TrafficSkew::LOCALITY] {
            let cfg = SkewedTraceConfig::new(600, skew).with_seed(13);
            let a = generate_skewed_trace(&rs, &cfg);
            let b = generate_skewed_trace(&rs, &cfg);
            assert_eq!(a, b, "{skew:?} not deterministic");
            assert_eq!(a.len(), 600);
            assert!(trace_is_valid(&a), "{skew:?} produced out-of-span values");
            let c = generate_skewed_trace(&rs, &SkewedTraceConfig::new(600, skew).with_seed(14));
            assert_ne!(a, c, "{skew:?} ignores the seed");
        }
    }

    #[test]
    fn zipf_concentrates_on_high_priority_rules() {
        let rs = rules();
        let mut cfg = SkewedTraceConfig::new(2000, TrafficSkew::ZIPF).with_seed(5);
        cfg.uniform_fraction = 0.0;
        let trace = generate_skewed_trace(&rs, &cfg);
        // Harmonic mass of the first 10 ranks out of 100 is
        // H(10)/H(100) ≈ 0.56 — far above the uniform 10%.
        let top10 = trace.iter().filter(|p| rs.classify(p).unwrap() < 10).count();
        assert!(top10 > trace.len() / 3, "only {top10}/{} packets hit the top 10", trace.len());
        // And every packet matches some rule (sampled inside one).
        assert!(trace.iter().all(|p| rs.classify(p).is_some()));
    }

    #[test]
    fn locality_bursts_repeat_matched_rules() {
        let rs = rules();
        let mut cfg =
            SkewedTraceConfig::new(1024, TrafficSkew::LocalityBurst { working_set: 4, burst: 32 })
                .with_seed(6);
        cfg.uniform_fraction = 0.0;
        let trace = generate_skewed_trace(&rs, &cfg);
        // Consecutive packets match the same rule far more often than
        // an unordered trace would: count adjacent matched-rule repeats.
        let matches: Vec<usize> = trace.iter().map(|p| rs.classify(p).unwrap()).collect();
        let repeats = matches.windows(2).filter(|w| w[0] == w[1]).count();
        assert!(
            repeats * 2 > trace.len(),
            "only {repeats} adjacent repeats in {} packets",
            trace.len()
        );
    }

    #[test]
    fn trace_hash_discriminates() {
        let rs = rules();
        let a = generate_skewed_trace(&rs, &SkewedTraceConfig::new(64, TrafficSkew::ZIPF));
        let b =
            generate_skewed_trace(&rs, &SkewedTraceConfig::new(64, TrafficSkew::ZIPF).with_seed(1));
        assert_eq!(trace_hash(&a), trace_hash(&a));
        assert_ne!(trace_hash(&a), trace_hash(&b));
        assert_ne!(trace_hash(&a), trace_hash(&a[..63]));
    }

    #[test]
    fn working_set_larger_than_rules_is_clamped() {
        let rs = rules();
        let cfg = SkewedTraceConfig::new(
            50,
            TrafficSkew::LocalityBurst { working_set: 10_000, burst: 7 },
        );
        let trace = generate_skewed_trace(&rs, &cfg);
        assert_eq!(trace.len(), 50);
        assert!(trace_is_valid(&trace));
    }
}
