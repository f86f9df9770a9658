//! The eight CLI subcommands.

use crate::args::Args;
use baselines::{classifier::timed, Baseline};
use classbench::{
    generate_rules, generate_trace, parse_rules, write_rules, ClassifierFamily, GeneratorConfig,
    Packet, RuleSet, TraceConfig,
};
use dtree::{
    serve_during, ChurnSchedule, ClassifierHandle, DecisionTree, RebuildPolicy, RuleId, Snapshot,
    TreeStats,
};
use neurocuts::{
    LifecycleConfig, LifecycleWorker, NeuroCutsConfig, PartitionMode, PersistConfig, Persistence,
    Trainer,
};

/// Top-level usage text.
pub const USAGE: &str = "\
neurocuts — learning packet-classification trees (SIGCOMM 2019 reproduction)

subcommands:
  generate --family acl|fw|ipc --size N [--seed S] [--out FILE]
      synthesise a ClassBench-style rule set (stdout if no --out)
  train    --rules FILE [--timesteps N] [--c 0..1]
           [--partition none|simple|efficuts] [--seed S] [--envs N]
           [--workers W] [--threads T] [--serve-trace N] [--out TREE.json]
      train a NeuroCuts policy (vectorised parallel envs, batched
      policy inference; --workers defaults to --threads, which
      defaults to all hardware threads), compile the best tree to its
      serving form, verify it against the linear-scan ground truth,
      and report the engine throughput on --threads cores; emits the
      tree as JSON
  build    --rules FILE --algo hicuts|hypercuts|hypersplit|efficuts|cutsplit
           [--out TREE.json]
      build a hand-tuned baseline tree
  classify --tree TREE.json --rules FILE [--trace N] [--seed S]
      replay a synthetic trace through a saved tree and verify it
      against the linear-scan ground truth
  serve-bench --tree TREE.json --rules FILE [--trace N] [--seed S]
              [--threads T] [--passes P]
      compile the tree to its serving form and measure scalar,
      batched, and sharded multi-core lookup throughput
  update-bench --tree TREE.json --rules FILE [--updates N] [--trace N]
               [--threads T] [--churn C] [--seed S]
               [--auto-retrain true] [--retrain-churn C] [--timesteps N]
               [--persist-dir DIR]
      replay an insert/delete churn schedule through the live
      ClassifierHandle while engine readers serve concurrently;
      reports updates/sec applied and Mpps sustained during churn.
      with --auto-retrain true, a background lifecycle worker watches
      the churn and hot-swaps a freshly retrained tree mid-replay once
      the updates reach --retrain-churn (default 0.25) of the rules;
      the run prints the per-attempt health timeline and the final
      HealthReport.
      --persist-dir DIR attaches crash-consistent persistence: every
      admitted update is write-ahead logged under DIR, the run
      checkpoints on attach and at exit and after every adopted
      retrain, and a kill -9 at any instant is recoverable with
      `neurocuts recover`
  recover  --persist-dir DIR [--rules FILE] [--trace N] [--seed S]
      rebuild the live classifier from DIR after a crash: load the
      newest valid checkpoint, truncate any torn write-ahead-log
      tail, replay the logged updates through admission control,
      prove the result against the linear-scan ground truth, and
      fold everything into a fresh checkpoint; with --rules the
      recovered tree is additionally verified over a synthetic trace
  stats    --tree TREE.json
      print a saved tree's statistics

an unknown flag is an error that names it";

fn read_rules(path: &str) -> Result<RuleSet, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse_rules(&text).map_err(|e| format!("{path}: {e}"))
}

fn read_tree(path: &str) -> Result<DecisionTree, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    DecisionTree::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

/// Classify `trace` through `snap` on `threads` workers, `passes`
/// times (min 1); returns the results and the aggregate packets/sec.
fn serve_timed(
    snap: &Snapshot,
    trace: &[Packet],
    threads: usize,
    passes: usize,
) -> (Vec<Option<RuleId>>, f64) {
    let passes = passes.max(1);
    let mut out = vec![None; trace.len()];
    let ((), secs) = timed(|| {
        for _ in 0..passes {
            snap.classify_sharded(trace, &mut out, threads);
        }
    });
    (out, (trace.len() * passes) as f64 / secs)
}

fn write_out(out: Option<&str>, content: &str) -> Result<(), String> {
    match out {
        Some(path) => {
            std::fs::write(path, content).map_err(|e| format!("cannot write {path}: {e}"))
        }
        None => {
            println!("{content}");
            Ok(())
        }
    }
}

/// `neurocuts generate`.
pub fn generate(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "family size seed out")?;
    let family = match args.required("family")? {
        "acl" => ClassifierFamily::Acl,
        "fw" => ClassifierFamily::Fw,
        "ipc" => ClassifierFamily::Ipc,
        other => return Err(format!("unknown family {other:?} (acl|fw|ipc)")),
    };
    let size: usize = args.required("size")?.parse().map_err(|_| "bad --size")?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let cfg = GeneratorConfig::new(family, size).with_seed(seed);
    let rules = generate_rules(&cfg);
    eprintln!("generated {} ({} rules)", cfg.label(), rules.len());
    write_out(args.get("out"), &write_rules(&rules))
}

/// `neurocuts train`: the full train → compile → serve pipeline.
///
/// Trains with the vectorised collector (`--envs` lockstep
/// environments, `--workers` threads, batched policy inference), then
/// closes the loop the way a deployment would: the best tree is
/// compiled to a serving snapshot, verified packet-for-packet against
/// the linear-scan ground truth, and pushed through the sharded
/// serving engine to report end-to-end lookup throughput.
pub fn train(argv: &[String]) -> Result<(), String> {
    let args =
        Args::parse(argv, "rules timesteps c partition seed envs workers threads serve-trace out")?;
    let rules = read_rules(args.required("rules")?)?;
    let timesteps: usize = args.parse_or("timesteps", 60_000)?;
    let c: f64 = args.parse_or("c", 1.0)?;
    if !(0.0..=1.0).contains(&c) {
        return Err("--c must be in [0, 1]".into());
    }
    let partition = match args.or("partition", "simple").as_str() {
        "none" => PartitionMode::None,
        "simple" => PartitionMode::Simple,
        "efficuts" => PartitionMode::EffiCuts,
        other => return Err(format!("unknown partition mode {other:?}")),
    };
    let seed: u64 = args.parse_or("seed", 0)?;
    let threads: usize =
        args.parse_or("threads", std::thread::available_parallelism().map_or(1, |t| t.get()))?;
    let serve_trace: usize = args.parse_or("serve-trace", 20_000)?;
    let mut cfg = NeuroCutsConfig::small(timesteps)
        .with_coeff(c)
        .with_partition_mode(partition)
        .with_seed(seed);
    cfg.num_envs = args.parse_or("envs", cfg.num_envs)?;
    cfg.workers = args.parse_or("workers", threads)?;

    eprintln!(
        "training on {} rules for up to {timesteps} timesteps ({} envs, {} workers)...",
        rules.len(),
        cfg.num_envs,
        cfg.workers
    );
    let mut trainer = Trainer::new(rules.clone(), cfg).map_err(|e| e.to_string())?;
    let report = trainer.train().map_err(|e| e.to_string())?;
    for h in &report.history {
        eprintln!(
            "  iter {:>3}: {:>7} steps  mean return {:>10.2}  best {:>8.1}",
            h.iteration, h.timesteps, h.mean_return, h.best_objective
        );
    }
    let (tree, stats) = trainer.deployed_tree();
    eprintln!("best tree: {stats}");

    // Compile to the serving form and prove it correct before it is
    // allowed anywhere near traffic.
    let snap = ClassifierHandle::new(DecisionTree::clone(&tree), RebuildPolicy::never()).snapshot();
    let flat = snap.flat();
    eprintln!(
        "compiled: {} nodes, {} rules, {} resident bytes",
        flat.num_nodes(),
        flat.num_rules(),
        flat.resident_bytes()
    );
    if serve_trace > 0 {
        let trace = generate_trace(&rules, &TraceConfig::new(serve_trace).with_seed(seed));
        for p in &trace {
            let got = flat.classify_checked(&tree, p).map_err(|e| e.to_string())?;
            if got != rules.classify(p) {
                return Err(format!("trained tree diverged from the linear scan at {p}"));
            }
        }
        eprintln!("verified {} packets against the linear-scan ground truth", trace.len());
        let (_, pps) = serve_timed(&snap, &trace, threads, 1);
        eprintln!(
            "serving engine {:>2}t  {pps:>10.0} pkts/s ({:.2} Mpps)",
            threads.max(1),
            pps / 1e6
        );
    }
    write_out(args.get("out"), &tree.to_json())
}

/// `neurocuts build`.
pub fn build(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "rules algo out")?;
    let rules = read_rules(args.required("rules")?)?;
    let algo = args.required("algo")?;
    let baseline =
        Baseline::from_name(algo).ok_or_else(|| format!("unknown algorithm {algo:?}"))?;
    let tree = baseline.build_tree(&rules);
    eprintln!("{algo}: {}", TreeStats::compute(&tree));
    write_out(args.get("out"), &tree.to_json())
}

/// `neurocuts classify`.
pub fn classify(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "tree rules trace seed")?;
    let tree = read_tree(args.required("tree")?)?;
    let rules = read_rules(args.required("rules")?)?;
    let n: usize = args.parse_or("trace", 10_000)?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let trace = generate_trace(&rules, &TraceConfig::new(n).with_seed(seed));

    // Only the tree lookups are timed; checking them against the linear
    // scan comes after.
    let (got, secs) = timed(|| trace.iter().map(|p| tree.classify(p)).collect::<Vec<_>>());
    let matched = got.iter().filter(|g| g.is_some()).count();
    let mismatches = trace.iter().zip(&got).filter(|&(p, &g)| g != rules.classify(p)).count();
    println!(
        "{} packets: {} matched, {} ground-truth mismatches, {:.1} ns/lookup ({:.2} Mpps)",
        trace.len(),
        matched,
        mismatches,
        secs * 1e9 / trace.len() as f64,
        trace.len() as f64 / secs / 1e6
    );
    if mismatches > 0 {
        return Err(format!("{mismatches} mismatches against the linear scan"));
    }
    println!("tree verified against the linear-scan ground truth");
    Ok(())
}

/// `neurocuts serve-bench`.
pub fn serve_bench(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "tree rules trace seed threads passes")?;
    let tree = read_tree(args.required("tree")?)?;
    let rules = read_rules(args.required("rules")?)?;
    let n: usize = args.parse_or("trace", 100_000)?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let threads: usize =
        args.parse_or("threads", std::thread::available_parallelism().map_or(1, |t| t.get()))?;
    let passes: usize = args.parse_or("passes", 20)?;
    let trace = generate_trace(&rules, &TraceConfig::new(n).with_seed(seed));

    let handle = ClassifierHandle::new(tree, RebuildPolicy::never());
    let snap = handle.snapshot();
    let flat = snap.flat();
    eprintln!(
        "compiled: {} nodes, {} rules, {} resident bytes",
        flat.num_nodes(),
        flat.num_rules(),
        flat.resident_bytes()
    );

    // Correctness first: the compiled tree must agree with the source
    // tree before its throughput means anything. The checked lookup
    // also proves the snapshot is not stale (generation match).
    let mut expect = vec![None; trace.len()];
    handle.with_tree(|tree| {
        flat.classify_batch_checked(tree, &trace, &mut expect).map_err(|e| e.to_string())?;
        for (p, &want) in trace.iter().zip(&expect) {
            let scalar = flat.classify_checked(tree, p).map_err(|e| e.to_string())?;
            if scalar != want || tree.classify(p) != want {
                return Err(format!("serving paths disagree at {p}"));
            }
        }
        Ok(())
    })?;

    let start = std::time::Instant::now();
    let mut hits = 0usize;
    for _ in 0..passes {
        hits = trace.iter().filter(|p| flat.classify(p).is_some()).count();
    }
    let scalar = (trace.len() * passes) as f64 / start.elapsed().as_secs_f64();
    println!("scalar      1t  {:>10.0} pkts/s  ({hits}/{} matched)", scalar, trace.len());

    let (_, batch) = serve_timed(&snap, &trace, 1, passes);
    println!("flat-batch  1t  {batch:>10.0} pkts/s");

    let (out, engine) = serve_timed(&snap, &trace, threads, passes);
    println!("engine     {:>2}t  {engine:>10.0} pkts/s", threads.max(1));
    if out != expect {
        return Err("engine results diverged from the batched path".into());
    }
    println!("all serving paths verified bit-identical");
    Ok(())
}

/// `neurocuts update-bench`: live classifier updates under traffic.
///
/// Builds a [`ClassifierHandle`] around the saved tree, spawns reader
/// threads that serve a synthetic trace through epoch-swapped
/// snapshots, and replays a seeded insert/delete schedule against the
/// handle. With `--auto-retrain true`, a background [`LifecycleWorker`]
/// runs alongside the replay and hot-swaps a freshly retrained tree
/// when the churn trigger fires. Afterwards the final snapshot is
/// verified bit-identical to a from-scratch recompile of the updated
/// tree.
pub fn update_bench(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(
        argv,
        "tree rules updates trace seed threads churn auto-retrain retrain-churn timesteps \
         persist-dir",
    )?;
    let tree = read_tree(args.required("tree")?)?;
    let rules = read_rules(args.required("rules")?)?;
    let updates: usize = args.parse_or("updates", 1000)?;
    let n: usize = args.parse_or("trace", 50_000)?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let threads: usize =
        args.parse_or("threads", std::thread::available_parallelism().map_or(1, |t| t.get()))?;
    let max_churn: f64 = args.parse_or("churn", 0.10)?;
    if !max_churn.is_finite() || max_churn <= 0.0 {
        return Err("--churn must be a positive fraction".into());
    }
    let auto_retrain: bool = args.parse_or("auto-retrain", false)?;
    let retrain_churn: f64 = args.parse_or("retrain-churn", 0.25)?;
    if !retrain_churn.is_finite() || retrain_churn <= 0.0 {
        return Err("--retrain-churn must be a positive fraction".into());
    }
    let train_timesteps: usize = args.parse_or("timesteps", 3_000)?;
    let persistence = args.get("persist-dir").map(Persistence::new);
    let trace = generate_trace(&rules, &TraceConfig::new(n).with_seed(seed));

    let policy = RebuildPolicy { max_churn, min_updates: 8, max_overlay: 256 };
    let handle = ClassifierHandle::new(tree, policy);
    if let Some(p) = &persistence {
        let ck = p.checkpoint(&handle, seed).map_err(|e| e.to_string())?;
        eprintln!(
            "persistence attached: {} (generation {}, wal-logged from here)",
            p.dir().display(),
            ck.generation
        );
    }
    eprintln!(
        "live handle: {} rules, epoch {}, rebuild at {:.0}% churn",
        handle.stats().active_rules,
        handle.epoch(),
        max_churn * 100.0
    );

    let live: Vec<usize> =
        (0..rules.len()).filter(|&id| handle.with_tree(|t| t.is_active(id))).collect();
    let mut schedule = ChurnSchedule::new(rules.rules().to_vec(), live, seed ^ 0x5eed);
    let worker = auto_retrain.then(|| {
        let mut lc = LifecycleConfig::new(NeuroCutsConfig::small(train_timesteps).with_seed(seed));
        lc.retrain_churn = retrain_churn;
        lc.persist = persistence.clone();
        LifecycleWorker::new(lc, &handle)
    });
    let stop = std::sync::atomic::AtomicBool::new(false);
    let ((churn_secs, served), lc_report) = std::thread::scope(|scope| {
        let worker_thread = worker.map(|w| {
            let (handle, trace, stop) = (&handle, &trace, &stop);
            scope.spawn(move || w.run(handle, trace, stop, std::time::Duration::from_millis(20)))
        });
        let measured = serve_during(&handle, &trace, threads.max(1), || {
            let start = std::time::Instant::now();
            for i in 0..updates {
                schedule.step(&handle);
                if (i + 1).is_multiple_of((updates / 10).max(1)) {
                    eprintln!(
                        "  {:>6}/{updates} updates  epoch {}  rebuilds {}  retrains {}  overlay {}",
                        i + 1,
                        handle.epoch(),
                        handle.stats().rebuilds,
                        handle.stats().retrains,
                        handle.stats().overlay_len
                    );
                }
            }
            start.elapsed().as_secs_f64()
        });
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let lc_report = worker_thread.map(|t| t.join().expect("lifecycle worker thread"));
        (measured, lc_report)
    });

    let stats = handle.stats();
    let applied_per_sec = updates as f64 / churn_secs.max(1e-9);
    let sustained_mpps = served as f64 / churn_secs.max(1e-9) / 1e6;
    println!("updates applied   {updates} ({applied_per_sec:>10.0} updates/s)");
    println!("rebuilds          {} (epoch {})", stats.rebuilds, stats.epoch);
    println!("sustained serving {threads} readers  {sustained_mpps:>8.2} Mpps during churn");
    if let Some(report) = &lc_report {
        println!(
            "auto-retrain      {} attempt(s), {} adopted ({} trigger polls)",
            report.retrains,
            report.adopted(),
            report.polls
        );
        for e in &report.events {
            match &e.skipped {
                None => println!(
                    "  seed {}: {:.0}% churn -> depth {} -> {}, reconciled +{}/-{}, \
                     spot-checked {}, epoch {}",
                    e.train_seed,
                    e.churn * 100.0,
                    e.depth_before,
                    e.depth_after,
                    e.reconciled_inserts,
                    e.reconciled_deletes,
                    e.spot_checked,
                    e.epoch
                ),
                Some(why) => println!(
                    "  seed {} skipped: {why} (failures {}, backoff {} polls{}{})",
                    e.train_seed,
                    e.failures_after,
                    e.backoff_polls,
                    if e.fallback_rebuild { ", fallback rebuild" } else { "" },
                    if e.degraded { ", degraded" } else { "" }
                ),
            }
        }
    }
    println!("updates rejected  {} (admission control)", schedule.rejected());
    println!("health            {}", handle.health());

    // Correctness gate: the final snapshot must equal a full recompile.
    if let Some(p) = handle.check_divergence(&trace) {
        return Err(format!("snapshot diverged from full rebuild at {p}"));
    }
    println!("final snapshot verified bit-identical to a full rebuild");
    if let Some(p) = &persistence {
        let ck = p.checkpoint(&handle, seed).map_err(|e| e.to_string())?;
        println!(
            "final checkpoint  generation {} ({} bytes, folded {} wal record(s))",
            ck.generation, ck.bytes, ck.folded_records
        );
    }

    // And the sharded engine over the final snapshot agrees too.
    let snap = handle.snapshot();
    let mut got = vec![None; trace.len()];
    snap.classify_batch(&trace, &mut got);
    let (out, pps) = serve_timed(&snap, &trace, threads, 1);
    if out != got {
        return Err("engine diverged from the snapshot".into());
    }
    println!(
        "engine            {:>2}t  {pps:>10.0} pkts/s (epoch {})",
        threads.max(1),
        snap.epoch()
    );
    Ok(())
}

/// `neurocuts recover`: rebuild a serving classifier from a persist
/// directory after a crash.
///
/// Loads the newest checkpoint that reads back clean, truncates any
/// torn write-ahead-log tail, replays the logged updates through the
/// normal admission path, proves the result against the linear-scan
/// ground truth, and folds everything into a fresh generation — the
/// handle that comes back is already serving-safe. With `--rules` the
/// recovered tree is additionally verified over a synthetic trace.
pub fn recover(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "persist-dir rules trace seed")?;
    let dir = std::path::PathBuf::from(args.required("persist-dir")?);
    let n: usize = args.parse_or("trace", 10_000)?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let probes = match args.get("rules") {
        Some(path) => {
            let rules = read_rules(path)?;
            generate_trace(&rules, &TraceConfig::new(n).with_seed(seed))
        }
        None => Vec::new(),
    };

    let started = std::time::Instant::now();
    let (handle, report) = neurocuts::recover(
        &dir,
        RebuildPolicy::default_policy(),
        &probes,
        &PersistConfig::default(),
    )
    .map_err(|e| e.to_string())?;
    let ms = started.elapsed().as_secs_f64() * 1e3;

    println!("recovered from {} in {ms:.1} ms", dir.display());
    println!("  base generation  {}", report.base_generation);
    println!("  wal replayed     {} record(s)", report.replayed);
    println!("  epoch            {}", report.epoch);
    println!("  train seed       {}", report.train_seed);
    println!("  spot checked     {} probe(s) against the linear scan", report.spot_checked);
    println!("  new generation   {}", report.new_generation);
    match &report.truncated_tail {
        Some(note) => println!("  torn tail        {note}"),
        None => println!("  torn tail        none"),
    }
    for skipped in &report.skipped_checkpoints {
        println!("  skipped          {skipped}");
    }
    println!("  rules            {}", handle.stats().active_rules);
    println!("health            {}", handle.health());
    Ok(())
}

/// `neurocuts stats`.
pub fn stats(argv: &[String]) -> Result<(), String> {
    let args = Args::parse(argv, "tree")?;
    let tree = read_tree(args.required("tree")?)?;
    let stats = TreeStats::compute(&tree);
    println!("{stats}");
    println!("{}", dtree::LevelProfile::compute(&tree).render_ascii(48));
    Ok(())
}
