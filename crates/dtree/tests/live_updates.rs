//! Differential churn tests for the live-update serving path.
//!
//! The claim under test: a [`ClassifierHandle`] serving snapshot —
//! compiled `FlatTree` + retired ranks + insert overlay — is
//! **bit-identical** to a from-scratch `FlatTree::compile` of the
//! handle's current tree (and to the arena linear scan) after *every*
//! interleaved insert/delete, on every node kind, with duplicate
//! priorities and rules spanning multiple partition children, while
//! sharded readers hammer the handle concurrently.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, DimRange, GeneratorConfig, Packet, Rule,
    RuleSet, TraceConfig,
};
use dtree::{ClassifierHandle, DecisionTree, FlatTree, RebuildPolicy};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng as _, SeedableRng as _};
use rand_chacha::ChaCha8Rng;

/// Expand `tree` with `steps` random operations covering all five node
/// kinds (mirrors the serving-path suite: parity must hold on every
/// kind, not just cut trees).
fn random_expand_all_kinds(tree: &mut DecisionTree, rng: &mut ChaCha8Rng, steps: usize) {
    for _ in 0..steps {
        let leaves: Vec<usize> = tree
            .leaf_ids()
            .filter(|&id| tree.node(id).num_rules() > 2 && tree.is_separable(id))
            .collect();
        let Some(&id) = leaves.as_slice().choose(rng) else { return };
        let dims: Vec<Dim> = classbench::DIMS
            .iter()
            .copied()
            .filter(|&d| tree.node(id).space.range(d).len() >= 4)
            .collect();
        let Some(&dim) = dims.as_slice().choose(rng) else { continue };
        match rng.gen_range(0..5) {
            0 => {
                tree.cut_node(id, dim, *[2usize, 4, 8].choose(rng).unwrap());
            }
            1 => {
                let second: Vec<Dim> = dims.iter().copied().filter(|&d| d != dim).collect();
                match second.as_slice().choose(rng) {
                    Some(&d2) => tree.multicut_node(id, &[(dim, 2), (d2, 2)]),
                    None => tree.cut_node(id, dim, 2),
                };
            }
            2 => {
                let range = *tree.node(id).space.range(dim);
                let len = range.len();
                tree.dense_cut_node(
                    id,
                    dim,
                    vec![range.lo, range.lo + len / 4, range.lo + len / 2, range.hi],
                );
            }
            3 => {
                let range = *tree.node(id).space.range(dim);
                let t = rng.gen_range(range.lo + 1..range.hi);
                tree.split_node(id, dim, t);
            }
            _ => {
                let rules = tree.rules_at(id).to_vec();
                let k = rng.gen_range(1..rules.len());
                let (a, b) = rules.split_at(k);
                tree.partition_node(id, vec![a.to_vec(), b.to_vec()]);
            }
        }
    }
}

/// A randomised insert candidate: bounds drawn from a donor rule pool,
/// priority sometimes duplicating an existing one (tie-breaks by id
/// must hold across the compiled table and the overlay).
fn random_insert(rng: &mut ChaCha8Rng, donors: &RuleSet, handle: &ClassifierHandle) -> Rule {
    let mut rule = donors.rules()[rng.gen_range(0..donors.len())].clone();
    rule.priority = if rng.gen_range(0..4) == 0 {
        // Duplicate an existing priority outright.
        handle.with_tree(|t| {
            let r = &t.rules()[rng.gen_range(0..t.rules().len())];
            r.priority
        })
    } else {
        rng.gen_range(-50..5000)
    };
    if rng.gen_range(0..4) == 0 {
        // Widen to a full wildcard in a couple of dimensions so the
        // rule spans many leaves (and several partition children).
        rule.ranges[Dim::SrcIp.index()] = DimRange::full(Dim::SrcIp);
        rule.ranges[Dim::DstIp.index()] = DimRange::full(Dim::DstIp);
    }
    rule
}

/// Assert the handle's published snapshot serves exactly what a
/// from-scratch rebuild of its tree serves (and the arena linear scan).
fn assert_snapshot_is_rebuild_identical(handle: &ClassifierHandle, probes: &[Packet]) {
    let snap = handle.snapshot();
    let rebuilt = handle.with_tree(FlatTree::compile);
    let mut batch = vec![None; probes.len()];
    snap.classify_batch(probes, &mut batch);
    for (i, p) in probes.iter().enumerate() {
        let want = rebuilt.classify(p);
        assert_eq!(snap.classify(p), want, "snapshot vs rebuild at {p}");
        assert_eq!(batch[i], want, "snapshot batch vs rebuild at {p}");
        let linear = handle.with_tree(|t| t.linear_classify(p));
        assert_eq!(want, linear, "rebuild vs linear scan at {p}");
    }
}

/// The acceptance gate: ≥1k interleaved inserts/deletes applied
/// through the handle while sharded readers serve concurrently;
/// every published snapshot must match a full rebuild bit-for-bit.
#[test]
fn thousand_update_churn_is_rebuild_identical_under_concurrent_reads() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 150).with_seed(60));
    let donors = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 200).with_seed(61));
    let mut tree = DecisionTree::new(&rules);
    let mut rng = ChaCha8Rng::seed_from_u64(0x11fe);
    random_expand_all_kinds(&mut tree, &mut rng, 12);
    let handle = ClassifierHandle::new(
        tree,
        RebuildPolicy { max_churn: 0.08, min_updates: 6, max_overlay: 256 },
    );

    let probes = generate_trace(&rules, &TraceConfig::new(40).with_seed(62));
    let trace = generate_trace(&rules, &TraceConfig::new(500).with_seed(63));
    let stop = std::sync::atomic::AtomicBool::new(false);
    let served = std::sync::atomic::AtomicUsize::new(0);

    std::thread::scope(|scope| {
        // Two concurrent sharded readers serve continuously while the
        // update thread churns; they must never tear, panic, or block.
        for _ in 0..2 {
            let handle = &handle;
            let trace = &trace;
            let stop = &stop;
            let served = &served;
            scope.spawn(move || {
                let mut out = vec![None; trace.len()];
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    handle.snapshot().classify_sharded(trace, &mut out, 2);
                    served.fetch_add(trace.len(), std::sync::atomic::Ordering::Relaxed);
                }
            });
        }

        let mut live: Vec<usize> = (0..rules.len()).collect();
        let mut applied = 0usize;
        while applied < 1000 {
            let do_insert = live.len() < 40 || rng.gen_range(0..5) < 3;
            if do_insert {
                // A random draw may exactly duplicate a live rule;
                // admission rejects those without publishing, so they
                // don't count as an applied update.
                let Ok(id) = handle.insert(random_insert(&mut rng, &donors, &handle)) else {
                    continue;
                };
                live.push(id);
            } else {
                let idx = rng.gen_range(0..live.len());
                let id = live.swap_remove(idx);
                handle.delete(id).unwrap();
            }
            applied += 1;
            // Bit-identical to a full rebuild after *every* update
            // (probe set), and on a bigger trace at checkpoints.
            assert_snapshot_is_rebuild_identical(&handle, &probes);
            if applied.is_multiple_of(200) {
                assert_snapshot_is_rebuild_identical(&handle, &trace);
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
    });

    // Every applied update published exactly one new epoch.
    let stats = handle.stats();
    assert_eq!(stats.epoch, 1000);
    assert!(stats.rebuilds > 0, "8% churn over 1000 updates must have rebuilt");
    assert!(served.load(std::sync::atomic::Ordering::Relaxed) > 0, "readers must have served");
    assert_snapshot_is_rebuild_identical(&handle, &trace);

    // The final snapshot also agrees when sharded three ways.
    let snap = handle.snapshot();
    assert_eq!(snap.epoch(), 1000);
    let mut out = vec![None; trace.len()];
    snap.classify_sharded(&trace, &mut out, 3);
    let rebuilt = handle.with_tree(FlatTree::compile);
    for (p, got) in trace.iter().zip(&out) {
        assert_eq!(*got, rebuilt.classify(p), "sharded at {p}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Random trees over all five node kinds, random interleaved
    /// updates through the handle, rebuild-identical after every step.
    #[test]
    fn prop_churned_snapshots_match_full_rebuild(seed in 0u64..500, steps in 1usize..14) {
        let rules = generate_rules(
            &GeneratorConfig::new(ClassifierFamily::Fw, 90).with_seed(seed));
        let donors = generate_rules(
            &GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(seed ^ 0xd0));
        let mut tree = DecisionTree::new(&rules);
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xc0de);
        random_expand_all_kinds(&mut tree, &mut rng, steps);
        let policy = if seed.is_multiple_of(2) {
            RebuildPolicy { max_churn: 0.10, min_updates: 5, max_overlay: 256 }
        } else {
            RebuildPolicy::never()
        };
        let handle = ClassifierHandle::new(tree, policy);

        let mut probes: Vec<Packet> = generate_trace(
            &rules, &TraceConfig::new(25).with_seed(seed ^ 0xabc));
        probes.extend((0..15).map(|_| Packet::new(
            rng.gen_range(0..1u64 << 32),
            rng.gen_range(0..1u64 << 32),
            rng.gen_range(0..1u64 << 16),
            rng.gen_range(0..1u64 << 16),
            rng.gen_range(0..256),
        )));

        let mut live: Vec<usize> = (0..rules.len()).collect();
        for _ in 0..30 {
            if live.is_empty() || rng.gen_range(0..5) < 3 {
                // Duplicate draws are rejected by admission control.
                if let Ok(id) = handle.insert(random_insert(&mut rng, &donors, &handle)) {
                    live.push(id);
                }
            } else {
                let idx = rng.gen_range(0..live.len());
                let id = live.swap_remove(idx);
                prop_assert!(handle.delete(id).is_ok());
            }
            let snap = handle.snapshot();
            let rebuilt = handle.with_tree(FlatTree::compile);
            let mut batch = vec![None; probes.len()];
            snap.classify_batch(&probes, &mut batch);
            for (i, p) in probes.iter().enumerate() {
                let want = rebuilt.classify(p);
                prop_assert_eq!(snap.classify(p), want, "snapshot vs rebuild at {}", p);
                prop_assert_eq!(batch[i], want, "batch vs rebuild at {}", p);
                let linear = handle.with_tree(|t| t.linear_classify(p));
                prop_assert_eq!(want, linear, "rebuild vs linear at {}", p);
            }
        }
    }
}

/// A rule spanning several partition children must stay consistent
/// through insert → serve → compile → delete, whichever child the
/// routed insert placed it in; and deletes of compiled rules in every
/// partition child retire ranks under the root partition, which the
/// batch path merges per child.
#[test]
fn wildcard_insert_spans_partition_children_and_deletes_cleanly() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 120).with_seed(70));
    let mut tree = DecisionTree::new(&rules);
    let all = tree.rules_at(tree.root()).to_vec();
    let third = all.len() / 3;
    let (a, rest) = all.split_at(third);
    let (b, c) = rest.split_at(third);
    let parts = tree.partition_node(tree.root(), vec![a.to_vec(), b.to_vec(), c.to_vec()]);
    for p in parts {
        if !tree.is_terminal(p, 16) {
            tree.cut_node(p, Dim::SrcIp, 4);
        }
    }
    let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
    let mut probes = generate_trace(&rules, &TraceConfig::new(300).with_seed(71));

    let top = rules.rules().iter().map(|r| r.priority).max().unwrap();
    let id = handle.insert(Rule::default_rule(top + 1)).unwrap();
    assert_snapshot_is_rebuild_identical(&handle, &probes);
    let snap = handle.snapshot();
    for p in &probes {
        assert_eq!(snap.classify(p), Some(id), "full wildcard must shadow everything at {p}");
    }
    handle.force_rebuild();
    handle.delete(id).unwrap();
    assert_snapshot_is_rebuild_identical(&handle, &probes);
    let snap = handle.snapshot();
    for p in &probes {
        assert_ne!(snap.classify(p), Some(id), "deleted wildcard resurfaced at {p}");
    }
    // The wildcard covered its leaves, so its delete may refill them
    // and recompile; these deletes only retire ranks. A probe inside
    // each victim sends the batch path through the retired rank.
    let rebuilds = handle.stats().rebuilds;
    for part in [a, b, c] {
        probes.push(rules.rule(part[0]).low_corner());
        handle.delete(part[0]).unwrap();
    }
    assert_eq!(handle.stats().rebuilds, rebuilds, "compiled deletes retire ranks");
    assert_snapshot_is_rebuild_identical(&handle, &probes);
    assert_eq!(handle.check_divergence(&probes), None);
}
