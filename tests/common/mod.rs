//! Shared helpers for the workspace-level integration suites (each
//! suite pulls in what it needs; the rest is `dead_code` per-binary).
#![allow(dead_code)]

use classbench::{DimRange, Packet, Rule, RuleSet};
use proptest::prelude::*;

/// Strategy for one random rule: each dimension is a wildcard, an
/// exact value, or a range.
pub fn arb_rule(priority: i32) -> impl Strategy<Value = Rule> {
    let dim_range = |span: u64| {
        prop_oneof![
            Just((0u64, span)),
            (0..span).prop_map(move |v| (v, v + 1)),
            (0..span, 1..=span).prop_map(move |(lo, len)| {
                let hi = (lo + len).min(span);
                (lo.min(hi - 1), hi)
            }),
        ]
    };
    (dim_range(1 << 32), dim_range(1 << 32), dim_range(1 << 16), dim_range(1 << 16), dim_range(256))
        .prop_map(move |(s, d, sp, dp, pr)| {
            Rule::from_fields(
                DimRange::new(s.0, s.1),
                DimRange::new(d.0, d.1),
                DimRange::new(sp.0, sp.1),
                DimRange::new(dp.0, dp.1),
                DimRange::new(pr.0, pr.1),
                priority,
            )
        })
}

/// Strategy for a random rule set of 1..`max_rules` rules plus a
/// trailing default rule (so every packet matches something).
pub fn arb_ruleset(max_rules: usize) -> impl Strategy<Value = RuleSet> {
    proptest::collection::vec(arb_rule(0), 1..max_rules).prop_map(|mut rules| {
        rules.push(Rule::default_rule(0));
        RuleSet::from_ordered(rules)
    })
}

/// Strategy for one uniformly random packet (full 5-tuple space, so it
/// probes rule-free regions the generated traces never reach).
pub fn arb_packet() -> impl Strategy<Value = Packet> {
    (0..1u64 << 32, 0..1u64 << 32, 0..1u64 << 16, 0..1u64 << 16, 0..256u64)
        .prop_map(|(a, b, c, d, e)| Packet::new(a, b, c, d, e))
}
