//! Incremental classifier updates (§4, "Handling classifier updates").
//!
//! Small updates modify the existing tree in place: a new rule is routed
//! down the existing structure and inserted into every leaf whose space
//! it intersects; a deleted rule is removed from its leaves and marked
//! inactive in the arena. When enough updates accumulate, the caller is
//! expected to rebuild (retrain) — [`UpdateLog`] tracks the churn so the
//! policy layer can decide when.

use crate::node::{NodeId, NodeKind, RuleId};
use crate::space::NodeSpace;
use crate::tree::DecisionTree;
use classbench::{Dim, DimRange, Rule, DIMS};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Why an update could not be applied — the admission-control taxonomy
/// live update streams surface instead of panicking. Every variant
/// leaves the serving state untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateError {
    /// The rule id is outside the tree's arena.
    UnknownRule(RuleId),
    /// The rule was already deleted by an earlier update.
    InactiveRule(RuleId),
    /// A dimension range with `lo > hi` — the half-open `[lo, hi)`
    /// convention means the bounds are inverted, not merely empty.
    InvertedRange {
        /// The offending dimension.
        dim: Dim,
        /// The (inverted) lower bound.
        lo: u64,
        /// The (inverted) upper bound.
        hi: u64,
    },
    /// A degenerate (`lo == hi`, matches nothing) or out-of-span
    /// (`hi > 2^bits`) dimension range.
    InvalidRange {
        /// The offending dimension.
        dim: Dim,
        /// The lower bound.
        lo: u64,
        /// The upper bound.
        hi: u64,
    },
    /// An insert identical (ranges and priority) to a rule that is
    /// already active — the payload is the existing rule's id, so the
    /// caller can reference it instead of double-inserting.
    DuplicateRule(RuleId),
    /// The insert overlay reached the rebuild policy's hard bound; the
    /// handle folds the overlay into a recompile instead of growing it
    /// (backpressure — recorded in the health report, the insert itself
    /// still lands).
    OverlayFull {
        /// The policy's `max_overlay` cap.
        cap: usize,
    },
    /// Appending the update to the attached write-ahead log failed, so
    /// the update was refused before touching any state: the durable
    /// log must never trail what the classifier serves. Carries the
    /// I/O error class (the full message lands in the health report's
    /// sticky `last_error`).
    WalAppend {
        /// The I/O error class reported by the failed append.
        kind: std::io::ErrorKind,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::UnknownRule(id) => write!(f, "rule {id} does not exist in the arena"),
            UpdateError::InactiveRule(id) => write!(f, "rule {id} is not active"),
            UpdateError::InvertedRange { dim, lo, hi } => {
                write!(f, "{dim:?} range [{lo}, {hi}) has inverted bounds")
            }
            UpdateError::InvalidRange { dim, lo, hi } => {
                let why = if *hi > dim.span() { "exceeds the dimension span" } else { "is empty" };
                write!(f, "{dim:?} range [{lo}, {hi}) {why}")
            }
            UpdateError::DuplicateRule(id) => {
                write!(f, "an identical rule is already active as id {id}")
            }
            UpdateError::OverlayFull { cap } => {
                write!(f, "insert overlay reached its bound of {cap}; fold-rebuild forced")
            }
            UpdateError::WalAppend { kind } => {
                write!(f, "write-ahead log append failed ({kind:?}); update refused")
            }
        }
    }
}

impl std::error::Error for UpdateError {}

/// Admission control: reject malformed rules before they touch the
/// tree. A rule is admissible when every dimension range is non-empty,
/// correctly ordered, and within the dimension's span — the properties
/// every other invariant in the serving path (probe packets, low-corner
/// spot checks, interval routing) silently relies on.
pub fn validate_rule(rule: &Rule) -> Result<(), UpdateError> {
    for dim in DIMS {
        let r = rule.range(dim);
        check_range(dim, r)?;
        if r.is_empty() {
            return Err(UpdateError::InvalidRange { dim, lo: r.lo, hi: r.hi });
        }
    }
    Ok(())
}

/// The bounds every stored rule range keeps, `lo ≤ hi ≤ span`, so that
/// the compiled leaf tables and the arena walk read the same rule. Live
/// inserts also refuse an empty range ([`validate_rule`]); a stored
/// tree may hold one ([`DecisionTree::from_json`] checks only these
/// bounds).
pub(crate) fn check_range(dim: Dim, r: &DimRange) -> Result<(), UpdateError> {
    if r.lo > r.hi {
        Err(UpdateError::InvertedRange { dim, lo: r.lo, hi: r.hi })
    } else if r.hi > dim.span() {
        Err(UpdateError::InvalidRange { dim, lo: r.lo, hi: r.hi })
    } else {
        Ok(())
    }
}

/// Refuse to delete an id outside the arena or one already deleted. The
/// one guard of [`delete_rule`] and of
/// [`crate::serve::ClassifierHandle::delete`], which checks before it
/// logs so that only deletes that will land reach the write-ahead log.
pub(crate) fn check_deletable(tree: &DecisionTree, id: RuleId) -> Result<(), UpdateError> {
    if id >= tree.rules().len() {
        Err(UpdateError::UnknownRule(id))
    } else if !tree.is_active(id) {
        Err(UpdateError::InactiveRule(id))
    } else {
        Ok(())
    }
}

/// Running counters of in-place updates applied to a tree.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct UpdateLog {
    /// Rules inserted since the last rebuild.
    pub inserted: usize,
    /// Rules deleted since the last rebuild.
    pub deleted: usize,
}

impl UpdateLog {
    /// Total updates applied since the last rebuild.
    pub fn total(&self) -> usize {
        self.inserted + self.deleted
    }

    /// Fraction of the current active rules that changed; the rebuild
    /// policy in the paper retrains "when enough small updates
    /// accumulate".
    ///
    /// The `active_rules == 0` edge (every rule deleted) clamps the
    /// denominator to 1, so the ratio is always finite: an emptied
    /// classifier reads as "`total` rules' worth of churn" rather than
    /// NaN/inf. That trips any sane threshold as soon as the policy's
    /// `min_updates` gate is met — one rebuild fires, the log resets,
    /// and the ratio returns to 0 instead of wedging the policy in a
    /// permanently-triggered (or never-triggered) state.
    pub fn churn(&self, active_rules: usize) -> f64 {
        self.total() as f64 / active_rules.max(1) as f64
    }
}

/// Insert `rule` into the existing tree structure. Returns the new
/// rule's stable id.
///
/// The rule is appended to the arena and added, in precedence position,
/// to every leaf whose space intersects it. At partition nodes the rule
/// descends into the child with the fewest rules (children share the
/// parent's space, and lookups consult all of them, so any child is
/// correct; picking the smallest keeps partitions balanced).
pub fn insert_rule(tree: &mut DecisionTree, rule: Rule) -> RuleId {
    let id = tree.push_rule(rule);
    route_insert(tree, id);
    id
}

/// Route an already-appended arena rule into every leaf whose space it
/// intersects — the body of [`insert_rule`], shared with the adoption
/// path ([`crate::serve::ClassifierHandle::adopt`]), which re-routes
/// rules that landed after a retrain snapshot was taken.
pub(crate) fn route_insert(tree: &mut DecisionTree, id: RuleId) {
    let mut stack: Vec<NodeId> = vec![tree.root()];
    while let Some(nid) = stack.pop() {
        if !tree.node(nid).space.intersects_rule(tree.rule(id)) {
            continue;
        }
        match tree.node(nid).kind.clone() {
            NodeKind::Leaf => tree.leaf_insert_sorted(nid, id),
            NodeKind::Partition { children } => {
                // A childless partition cannot be reached by lookups
                // either (classify consults children only), so there is
                // nowhere to route — skip instead of panicking.
                if let Some(target) = children.into_iter().min_by_key(|&c| tree.node(c).num_rules())
                {
                    stack.push(target);
                }
            }
            other => {
                // Cut / MultiCut / Split: descend into every child whose
                // space the rule intersects (it may span several).
                stack.extend(other.children().iter().copied());
            }
        }
    }
}

/// Remove `id` from every leaf list it appears in, leaving the active
/// flag alone (the flag half of deletion belongs to [`delete_rule`] and
/// the adoption path, which own the accounting). Returns the leaves
/// that listed `id` and whose whole space it covers — the only leaves
/// where covered-rule truncation may have dropped rules below it.
pub(crate) fn route_remove(tree: &mut DecisionTree, id: RuleId) -> Vec<NodeId> {
    let mut covered = Vec::new();
    let mut stack: Vec<NodeId> = vec![tree.root()];
    while let Some(nid) = stack.pop() {
        if !tree.node(nid).space.intersects_rule(tree.rule(id)) {
            continue;
        }
        if tree.node(nid).is_leaf() {
            if tree.store().covers(id, &tree.node(nid).space) && tree.rules_at(nid).contains(&id) {
                covered.push(nid);
            }
            tree.leaf_remove(nid, id);
        } else {
            // Every non-leaf kind descends all children: partition
            // children share the parent's space (the rule may sit in
            // any of them), and cut/split children that don't
            // intersect the rule are pruned by the check above.
            stack.extend(tree.node(nid).kind.children().iter().copied());
        }
    }
    covered
}

/// Guarantee the routing invariant for one active rule: every leaf a
/// matching packet can reach must list it. Cut/split nodes check every
/// intersecting child; a partition node completes the children that
/// already hold the rule somewhere (repairing per-leaf truncation holes
/// without duplicating the rule across partitions) and, when none does,
/// routes it into the emptiest child exactly like [`insert_rule`].
/// Returns the number of leaf lists the rule had to be added to
/// (0 = the rule was already fully routed).
pub(crate) fn ensure_rule(tree: &mut DecisionTree, id: RuleId) -> usize {
    ensure_under(tree, tree.root(), id)
}

fn ensure_under(tree: &mut DecisionTree, nid: NodeId, id: RuleId) -> usize {
    if !tree.node(nid).space.intersects_rule(tree.rule(id)) {
        return 0;
    }
    match tree.node(nid).kind.clone() {
        NodeKind::Leaf => {
            if tree.rules_at(nid).contains(&id) {
                0
            } else {
                tree.leaf_insert_sorted(nid, id);
                1
            }
        }
        NodeKind::Partition { children } => {
            let holders: Vec<NodeId> =
                children.iter().copied().filter(|&c| subtree_holds(tree, c, id)).collect();
            if holders.is_empty() {
                // Same childless-partition tolerance as `route_insert`:
                // nothing to descend means nothing a lookup can reach.
                match children.into_iter().min_by_key(|&c| tree.node(c).num_rules()) {
                    Some(target) => ensure_under(tree, target, id),
                    None => 0,
                }
            } else {
                holders.into_iter().map(|c| ensure_under(tree, c, id)).sum()
            }
        }
        other => other.children().iter().map(|&c| ensure_under(tree, c, id)).sum(),
    }
}

/// True when any leaf under `nid` lists `id`.
fn subtree_holds(tree: &DecisionTree, nid: NodeId, id: RuleId) -> bool {
    let mut stack: Vec<NodeId> = vec![nid];
    while let Some(n) = stack.pop() {
        if tree.node(n).is_leaf() {
            if tree.rules_at(n).contains(&id) {
                return true;
            }
        } else {
            stack.extend(tree.node(n).kind.children().iter().copied());
        }
    }
    false
}

/// Delete a rule: mark it inactive and remove it from every leaf list.
///
/// The deletion routes down the tree exactly like [`insert_rule`]:
/// only subtrees whose space intersects the rule are visited, so the
/// cost is O(depth × touched leaves) rather than a scan of the whole
/// node arena. Partition children share their parent's space and any
/// of them may hold the rule, so all are descended.
///
/// A leaf whose space the deleted rule covered may have been truncated
/// below it ([`DecisionTree::truncate_covered`]); the rules that
/// truncation dropped are reachable again up to the next rule of the
/// leaf that covers it, so those are put back.
///
/// Errors (instead of panicking) on an out-of-range or already-deleted
/// id, so callers driving live update streams can surface bad updates
/// without crashing the serving process.
pub fn delete_rule(tree: &mut DecisionTree, id: RuleId) -> Result<(), UpdateError> {
    check_deletable(tree, id)?;
    delete_and_refill(tree, id);
    Ok(())
}

/// [`delete_rule`] of an id [`check_deletable`] admitted, returning how
/// many leaf placements the refill of truncated leaves added (a
/// compiled copy of the tree that only retires the deleted rule is
/// stale when this is not 0).
pub(crate) fn delete_and_refill(tree: &mut DecisionTree, id: RuleId) -> usize {
    tree.deactivate_rule(id);
    let covered = route_remove(tree, id);
    if covered.is_empty() {
        return 0;
    }
    // Rules below a covered leaf's next covering rule stay unreachable
    // there; with no covering rule left, every rule below `id` is back.
    // A leaf whose next covering rule precedes `id` takes none back.
    let next_cover: BTreeMap<NodeId, Option<RuleId>> = covered
        .into_iter()
        .map(|leaf| {
            let space = tree.node(leaf).space;
            let covers = |r: RuleId| tree.is_active(r) && tree.store().covers(r, &space);
            (leaf, tree.rules_at(leaf).iter().copied().find(|&r| covers(r)))
        })
        .filter(|(_, cover)| cover.is_none_or(|c| tree.precedes(id, c)))
        .collect();
    if next_cover.is_empty() {
        return 0;
    }
    // Candidates: the active rules below `id` that overlap it (a
    // covered leaf lies inside `id`'s box). Each is routed to the
    // covered leaves it overlaps, as a delete routes.
    let reach = NodeSpace { ranges: tree.rule(id).ranges };
    let candidates: Vec<RuleId> = (0..tree.rules().len())
        .filter(|&r| {
            tree.is_active(r) && tree.precedes(id, r) && tree.store().intersects(r, &reach)
        })
        .collect();
    let mut refilled = 0;
    for r in candidates {
        let mut stack: Vec<NodeId> = vec![tree.root()];
        while let Some(nid) = stack.pop() {
            let space = tree.node(nid).space;
            if !tree.store().intersects(r, &space) || !tree.store().intersects(id, &space) {
                continue;
            }
            let reachable = |cover: &Option<RuleId>| cover.is_none_or(|c| tree.precedes(r, c));
            if !tree.node(nid).is_leaf() {
                stack.extend(tree.node(nid).kind.children().iter().copied());
            } else if next_cover.get(&nid).is_some_and(reachable)
                && !tree.rules_at(nid).contains(&r)
            {
                tree.leaf_insert_sorted(nid, r);
                refilled += 1;
            }
        }
    }
    refilled
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::assert_tree_valid;
    use classbench::{
        generate_rules, generate_trace, ClassifierFamily, Dim, DimRange, GeneratorConfig,
        TraceConfig,
    };

    fn built_tree() -> DecisionTree {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 120).with_seed(4));
        let mut t = DecisionTree::new(&rs);
        let kids = t.cut_node(t.root(), Dim::SrcIp, 8);
        for k in kids {
            if !t.is_terminal(k, 8) {
                t.cut_node(k, Dim::DstIp, 4);
            }
        }
        t
    }

    fn new_rule(priority: i32) -> Rule {
        let mut r = Rule::default_rule(priority);
        r.ranges[Dim::SrcIp.index()] = DimRange::from_prefix(0x0a000000, 8, 32);
        r.ranges[Dim::DstPort.index()] = DimRange::exact(8080);
        r
    }

    #[test]
    fn insert_is_visible_to_classification() {
        let mut t = built_tree();
        let hi_prio = t.rules().iter().map(|r| r.priority).max().unwrap() + 1;
        let id = insert_rule(&mut t, new_rule(hi_prio));
        // A packet inside the new rule now matches it (highest priority).
        let p = classbench::Packet::new(0x0a000001, 0, 0, 8080, 6);
        assert_eq!(t.classify(&p), Some(id));
        assert_tree_valid(&t, 300, 1);
    }

    #[test]
    fn insert_respects_existing_priorities() {
        let mut t = built_tree();
        // Insert at the *lowest* priority: the default rule still wins
        // where it used to.
        let lo_prio = t.rules().iter().map(|r| r.priority).min().unwrap() - 1;
        let id = insert_rule(&mut t, new_rule(lo_prio));
        let p = classbench::Packet::new(0x0a000001, 0, 0, 8080, 6);
        let got = t.classify(&p);
        assert_ne!(got, Some(id), "low-priority insert must not shadow");
        assert_tree_valid(&t, 300, 2);
    }

    #[test]
    fn delete_removes_matches() {
        let mut t = built_tree();
        let hi_prio = t.rules().iter().map(|r| r.priority).max().unwrap() + 1;
        let id = insert_rule(&mut t, new_rule(hi_prio));
        let p = classbench::Packet::new(0x0a000001, 0, 0, 8080, 6);
        assert_eq!(t.classify(&p), Some(id));
        delete_rule(&mut t, id).unwrap();
        assert_ne!(t.classify(&p), Some(id));
        assert!(!t.is_active(id));
        assert_tree_valid(&t, 300, 3);
    }

    #[test]
    fn double_delete_and_bad_ids_error() {
        let mut t = built_tree();
        let id = insert_rule(&mut t, new_rule(999));
        assert_eq!(delete_rule(&mut t, id), Ok(()));
        assert_eq!(delete_rule(&mut t, id), Err(UpdateError::InactiveRule(id)));
        let out_of_range = t.rules().len();
        assert_eq!(delete_rule(&mut t, out_of_range), Err(UpdateError::UnknownRule(out_of_range)));
        // The failed deletes changed nothing.
        assert_tree_valid(&t, 200, 77);
    }

    #[test]
    fn delete_reaches_rules_in_every_partition_child() {
        // Distribute the original rules across two partition children,
        // then delete rules from both sides: the routed delete must
        // descend every partition child (they share the parent space),
        // not just the smallest one.
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(41));
        let mut t = DecisionTree::new(&rs);
        let all = t.rules_at(t.root()).to_vec();
        let (a, b) = all.split_at(all.len() / 2);
        let parts = t.partition_node(t.root(), vec![a.to_vec(), b.to_vec()]);
        for p in parts {
            if !t.is_terminal(p, 8) {
                t.cut_node(p, Dim::SrcIp, 4);
            }
        }
        for &victim in [a[0], a[a.len() - 1], b[0], b[b.len() - 1]].iter() {
            delete_rule(&mut t, victim).unwrap();
            assert!(!t.is_active(victim));
            // No leaf may still list the victim.
            for nid in t.leaf_ids().collect::<Vec<_>>() {
                assert!(!t.rules_at(nid).contains(&victim), "leaf {nid} kept rule {victim}");
            }
        }
        assert_tree_valid(&t, 300, 42);
    }

    #[test]
    fn generation_advances_on_every_update() {
        let mut t = built_tree();
        let g0 = t.generation();
        let id = insert_rule(&mut t, new_rule(55));
        let g1 = t.generation();
        assert!(g1 > g0, "insert must advance the generation");
        delete_rule(&mut t, id).unwrap();
        assert!(t.generation() > g1, "delete must advance the generation");
        // A failed delete is a no-op and leaves the generation alone.
        let g2 = t.generation();
        assert!(delete_rule(&mut t, id).is_err());
        assert_eq!(t.generation(), g2);
    }

    #[test]
    fn many_updates_stay_consistent() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 100).with_seed(9));
        let extra = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 40).with_seed(10));
        let mut t = DecisionTree::new(&rs);
        let kids = t.cut_node(t.root(), Dim::DstIp, 16);
        for k in kids {
            if !t.is_terminal(k, 8) {
                t.cut_node(k, Dim::SrcPort, 4);
            }
        }
        let mut log = UpdateLog::default();
        let mut inserted = Vec::new();
        for r in extra.rules().iter().take(30) {
            let mut r = r.clone();
            r.priority += 1000; // stack above existing rules
            inserted.push(insert_rule(&mut t, r));
            log.inserted += 1;
        }
        for &id in inserted.iter().step_by(2) {
            delete_rule(&mut t, id).unwrap();
            log.deleted += 1;
        }
        assert_eq!(log.inserted, 30);
        assert_eq!(log.deleted, 15);
        assert!(log.churn(t.num_active_rules()) > 0.0);
        assert_tree_valid(&t, 400, 4);
        // Tree classification equals linear scan on a realistic trace too.
        let trace = generate_trace(&rs, &TraceConfig::new(200));
        for p in &trace {
            assert_eq!(t.classify(p), t.linear_classify(p));
        }
    }

    #[test]
    fn live_updates_keep_the_pool_within_twice_its_live_entries() {
        use rand::{Rng as _, SeedableRng as _};
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 30).with_seed(13));
        let donors = generate_rules(&GeneratorConfig::new(ClassifierFamily::Fw, 200).with_seed(14));
        let mut t = DecisionTree::new(&rs);
        for k in t.cut_node(t.root(), Dim::SrcIp, 8) {
            for g in t.cut_node(k, Dim::DstPort, 4) {
                t.truncate_covered(g);
            }
        }
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(15);
        let mut live: Vec<RuleId> = (0..t.rules().len()).collect();
        for call in 0..2_000u64 {
            if live.len() < 16 || rng.gen_range(0..5) < 2 {
                let mut r = donors.rules()[rng.gen_range(0..donors.len())].clone();
                r.priority = rng.gen_range(-100..100_000);
                live.push(insert_rule(&mut t, r));
            } else {
                delete_rule(&mut t, live.swap_remove(rng.gen_range(0..live.len()))).unwrap();
            }
            let spans: usize = (0..t.num_nodes()).map(|n| t.rules_at(n).len()).sum();
            assert!(t.pool_len() <= 2 * spans, "call {call}: pool {} vs {spans}", t.pool_len());
            assert_tree_valid(&t, 8, call);
        }
    }

    #[test]
    fn churn_stays_finite_with_zero_active_rules() {
        // Deleting every rule must never produce a NaN/inf churn ratio
        // that wedges (or permanently triggers) the rebuild policy: the
        // denominator clamps to 1 and the ratio reads as `total`.
        let mut log = UpdateLog::default();
        assert_eq!(log.churn(0), 0.0);
        log.deleted = 5;
        assert!(log.churn(0).is_finite());
        assert_eq!(log.churn(0), 5.0);
        // A reset log on an empty classifier reads as zero churn again:
        // the trigger state clears, it does not latch.
        assert_eq!(UpdateLog::default().churn(0), 0.0);
    }

    #[test]
    fn delete_every_rule_leaves_a_consistent_empty_tree() {
        let mut t = built_tree();
        let all: Vec<RuleId> = (0..t.rules().len()).collect();
        for id in all {
            delete_rule(&mut t, id).unwrap();
        }
        assert_eq!(t.num_active_rules(), 0);
        let trace = generate_trace(
            &generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 120).with_seed(4)),
            &TraceConfig::new(100),
        );
        for p in &trace {
            assert_eq!(t.classify(p), None, "empty classifier must match nothing");
            assert_eq!(t.linear_classify(p), None);
        }
        // The emptied tree still accepts inserts and serves them.
        let id = insert_rule(&mut t, new_rule(7));
        let p = classbench::Packet::new(0x0a000001, 0, 0, 8080, 6);
        assert_eq!(t.classify(&p), Some(id));
        assert_tree_valid(&t, 200, 43);
    }

    #[test]
    fn ensure_rule_repairs_missing_leaf_placements() {
        let mut t = built_tree();
        let hi = t.rules().iter().map(|r| r.priority).max().unwrap() + 1;
        let id = insert_rule(&mut t, new_rule(hi));
        // Fully routed already: ensure is a no-op.
        assert_eq!(ensure_rule(&mut t, id), 0);
        // Knock the rule out of its leaves (keeping it active), then
        // ensure must restore every placement.
        route_remove(&mut t, id);
        let p = classbench::Packet::new(0x0a000001, 0, 0, 8080, 6);
        assert_ne!(t.classify(&p), Some(id), "rule is unreachable after removal");
        assert!(ensure_rule(&mut t, id) > 0);
        assert_eq!(t.classify(&p), Some(id));
        assert_tree_valid(&t, 300, 44);
    }

    #[test]
    fn ensure_rule_respects_partition_ownership() {
        // A rule already held by one partition child must not be
        // duplicated into its siblings, while a rule held by none lands
        // in exactly the emptiest child.
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(6));
        let mut t = DecisionTree::new(&rs);
        let all = t.rules_at(t.root()).to_vec();
        let (a, b) = all.split_at(all.len() / 3);
        t.partition_node(t.root(), vec![a.to_vec(), b.to_vec()]);
        let hi = t.rules().iter().map(|r| r.priority).max().unwrap() + 1;
        let id = insert_rule(&mut t, new_rule(hi));
        let placed: Vec<usize> =
            t.node(t.root()).kind.children().iter().map(|&c| t.node(c).num_rules()).collect();
        assert_eq!(ensure_rule(&mut t, id), 0, "already routed: no extra placements");
        let after: Vec<usize> =
            t.node(t.root()).kind.children().iter().map(|&c| t.node(c).num_rules()).collect();
        assert_eq!(placed, after, "ensure must not duplicate across partition children");
        assert_tree_valid(&t, 300, 45);
    }

    #[test]
    fn insert_into_partitioned_tree_balances() {
        let rs = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(6));
        let mut t = DecisionTree::new(&rs);
        let all = t.rules_at(t.root()).to_vec();
        let (a, b) = all.split_at(all.len() / 3);
        t.partition_node(t.root(), vec![a.to_vec(), b.to_vec()]);
        let before: Vec<usize> =
            t.node(t.root()).kind.children().iter().map(|&c| t.node(c).num_rules()).collect();
        let hi = t.rules().iter().map(|r| r.priority).max().unwrap() + 1;
        insert_rule(&mut t, new_rule(hi));
        let after: Vec<usize> =
            t.node(t.root()).kind.children().iter().map(|&c| t.node(c).num_rules()).collect();
        // The smaller partition received the rule.
        let min_idx = before.iter().enumerate().min_by_key(|&(_, &n)| n).unwrap().0;
        assert_eq!(after[min_idx], before[min_idx] + 1);
        assert_tree_valid(&t, 300, 5);
    }
}
