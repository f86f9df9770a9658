//! Integration tests of the traffic-aware objective extension (§8):
//! expected lookup cost under a trace, end to end through the trainer.

use baselines::Baseline;
use classbench::{
    generate_rules, generate_trace, ClassifierFamily, GeneratorConfig, Packet, TraceConfig,
};
use dtree::average_lookup_cost;
use neurocuts::{NeuroCutsConfig, Trainer};

#[test]
fn traffic_aware_training_runs_and_validates() {
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 80).with_seed(400));
    let trace = generate_trace(&rules, &TraceConfig::new(500).with_seed(401));
    let mut trainer = Trainer::new(rules.clone(), NeuroCutsConfig::smoke_test())
        .unwrap()
        .set_traffic(trace.clone());
    let (tree, _, _) = trainer.train_to_tree().unwrap();
    // Exactness is independent of the objective.
    for p in &trace {
        assert_eq!(tree.classify(p), rules.classify(p));
    }
    // The measured average cost is consistent with the tree.
    let avg = average_lookup_cost(&tree, &trace);
    assert!(avg >= 1.0);
    assert!(avg <= dtree::TreeStats::compute(&tree).time as f64 + 1e-9);
}

#[test]
fn average_cost_reacts_to_traffic_concentration() {
    // Build one fixed tree; a trace hitting only shallow paths must
    // yield a lower average cost than one hitting deep paths.
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 120).with_seed(402));
    let tree = Baseline::HiCuts.build_tree(&rules);
    // Find a shallow and a deep packet by probing.
    let probe = generate_trace(&rules, &TraceConfig::new(2000).with_seed(403));
    let mut costs: Vec<(usize, Packet)> =
        probe.iter().map(|p| (tree.classify_traced(p).1, *p)).collect();
    costs.sort_by_key(|&(c, _)| c);
    let shallow = costs.first().unwrap();
    let deep = costs.last().unwrap();
    if shallow.0 == deep.0 {
        return; // degenerate tree: every path equal, nothing to test
    }
    let avg_shallow = average_lookup_cost(&tree, &vec![shallow.1; 50]);
    let avg_deep = average_lookup_cost(&tree, &vec![deep.1; 50]);
    assert!(avg_shallow < avg_deep, "{avg_shallow} !< {avg_deep}");
}

#[test]
fn objective_consistency_between_env_and_measurement() {
    // The env's traffic objective for a built tree must equal the
    // weighted-average recursion over the same trace.
    let rules = generate_rules(&GeneratorConfig::new(ClassifierFamily::Acl, 60).with_seed(404));
    let trace = generate_trace(&rules, &TraceConfig::new(300).with_seed(405));
    let cfg = NeuroCutsConfig::smoke_test().with_seed(406);
    let env = neurocuts::NeuroCutsEnv::new(rules, cfg).with_traffic(trace.clone());
    // Build one tree through the env.
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(407);
    let net = nn::PolicyValueNet::new(
        nn::NetConfig {
            obs_dim: env.encoder.obs_dim(),
            dim_actions: env.action_space.dim_actions(),
            num_actions: env.action_space.num_actions(),
            hidden: [16, 16],
        },
        &mut rng,
    );
    let ep = env.build_tree(&net, 1, false);
    let counts = ep.tree.node_visit_counts(&trace);
    let avg = neurocuts::reward::subtree_avg_time(&ep.tree, &counts);
    assert!(
        (ep.objective - avg[ep.tree.root()]).abs() < 1e-9,
        "env {} vs recursion {}",
        ep.objective,
        avg[ep.tree.root()]
    );
}
