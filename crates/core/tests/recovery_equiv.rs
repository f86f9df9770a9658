//! Recovery equivalence: a classifier recovered from its durable state
//! must be **bit-identical** to the live handle it was persisted from —
//! even when the WAL was written under concurrent serving load — and
//! the on-disk layout itself is pinned by a golden hash so any format
//! drift is a deliberate, reviewed change.

use classbench::{
    generate_rules, generate_trace, ClassifierFamily, Dim, GeneratorConfig, TraceConfig,
};
use dtree::{
    serve_during, ChurnSchedule, ClassifierHandle, DecisionTree, RebuildPolicy, TreeStats,
};
use neurocuts::persist::{encode_checkpoint, fnv1a, Checkpoint};
use neurocuts::{recover, PersistConfig, Persistence};
use std::path::PathBuf;

const SEED: u64 = 0x0EC0_7E57;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nc-equiv-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seeded_tree(seed: u64, size: usize) -> DecisionTree {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, size).with_seed(seed));
    let mut tree = DecisionTree::new(&rules);
    for k in tree.cut_node(tree.root(), Dim::SrcIp, 8) {
        if !tree.is_terminal(k, 8) {
            tree.cut_node(k, Dim::DstIp, 4);
        }
    }
    tree
}

/// Churn the live handle under concurrent readers with persistence
/// attached (including a mid-run checkpoint, so recovery crosses a
/// checkpoint + WAL-chain boundary), then recover from the still-warm
/// directory and require the recovered handle to match the live one on
/// epoch, tree statistics, and every packet of the trace.
#[test]
fn recovered_state_matches_the_live_handle_bit_for_bit() {
    let dir = tmp_dir("churn");
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 120).with_seed(SEED));
    let trace = generate_trace(&rules, &TraceConfig::new(512).with_seed(SEED ^ 0x7ACE));
    let donors: Vec<_> = rules.rules().to_vec();

    let live = ClassifierHandle::new(seeded_tree(SEED, 120), RebuildPolicy::default_policy());
    let persistence = Persistence::new(&dir);
    persistence.checkpoint(&live, SEED).expect("attach checkpoint");

    let mut churn = ChurnSchedule::new(donors, Vec::new(), SEED);
    let ((), served) = serve_during(&live, &trace, 2, || {
        for step in 0..200 {
            churn.step(&live);
            if step == 99 {
                persistence.checkpoint(&live, SEED).expect("mid-run checkpoint");
            }
        }
    });
    assert!(served > 0, "readers must have classified packets during the churn");

    let (recovered, report) =
        recover(&dir, RebuildPolicy::default_policy(), &trace, &PersistConfig::default())
            .expect("recovery from a cleanly shut-down directory");

    assert!(report.truncated_tail.is_none(), "a clean shutdown leaves no torn tail");
    assert!(report.replayed > 0, "the post-checkpoint churn must replay from the WAL");
    assert_eq!(recovered.epoch(), live.epoch(), "recovered epoch diverged from live");
    assert_eq!(
        recovered.with_tree(TreeStats::compute),
        live.with_tree(TreeStats::compute),
        "recovered tree statistics diverged from live"
    );
    let mut got = vec![None; trace.len()];
    let mut want = vec![None; trace.len()];
    recovered.snapshot().classify_batch(&trace, &mut got);
    live.snapshot().classify_batch(&trace, &mut want);
    assert_eq!(got, want, "recovered classification diverged from live");
    assert_eq!(recovered.check_divergence(&trace), None);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Golden on-disk layout pin: the encoded bytes of a fully
/// deterministic checkpoint hash to a fixed FNV-1a value. If this test
/// fails you changed the checkpoint format — bump `CHECKPOINT_VERSION`,
/// update this pin, and say so in the changelog; silent drift would
/// strand every durable directory in the field.
#[test]
fn golden_checkpoint_layout_hash_is_pinned() {
    let ck = Checkpoint { generation: 7, epoch: 42, train_seed: 9, tree: seeded_tree(3, 40) };
    let bytes = encode_checkpoint(&ck);
    assert_eq!(
        fnv1a(&bytes),
        0x51b6_4f6e_69b9_44b5,
        "checkpoint on-disk layout changed — see this test's doc comment before repinning"
    );
}
