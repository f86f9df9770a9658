//! End-to-end runs of the `neurocuts` binary: flag validation, the
//! generate → build → `update-bench --auto-retrain` path, and `recover`
//! after a real `kill -9`.

use std::path::PathBuf;
use std::process::{Command, Output};

fn neurocuts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_neurocuts"))
        .args(args)
        .output()
        .expect("the neurocuts binary runs")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

/// A fresh directory `name` holding a generated 60-rule ACL set and a
/// HiCuts tree built on it; returns the (rules, tree) paths.
fn rules_and_tree(name: &str) -> (String, String) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the test directory");
    let path = |file: &str| dir.join(file).to_str().expect("utf-8 path").to_string();
    let (rules, tree) = (path("rules.txt"), path("tree.json"));
    for args in [
        &["generate", "--family", "acl", "--size", "60", "--seed", "3", "--out", &rules][..],
        &["build", "--rules", &rules, "--algo", "hicuts", "--out", &tree],
    ] {
        let out = neurocuts(args);
        assert!(out.status.success(), "{args:?} failed: {}", text(&out.stderr));
    }
    (rules, tree)
}

#[test]
fn update_bench_rejects_a_nan_retrain_churn() {
    let (rules, tree) = rules_and_tree("nan_retrain_churn");
    let out = neurocuts(&[
        "update-bench",
        "--tree",
        &tree,
        "--rules",
        &rules,
        "--updates",
        "40",
        "--retrain-churn",
        "nan",
    ]);
    let stderr = text(&out.stderr);
    assert!(!out.status.success(), "a NaN fraction must be refused; stderr: {stderr}");
    assert!(stderr.contains("--retrain-churn"), "the error names the flag: {stderr}");
}

/// A misspelt flag and a retired one (the fault-injection flag older
/// `update-bench` builds took) are errors that name the flag.
#[test]
fn unknown_flags_are_refused_by_name() {
    let (rules, tree) = rules_and_tree("unknown_flags");
    let gone = ["update-bench", "--tree", &tree, "--rules", &rules, "--updates", "40"];
    let gone = [&gone[..], &["--fault-schedule", "retrain-panic@0"]].concat();
    let misspelt = ["generate", "--family", "acl", "--size", "5", "--szie", "500"];
    for (args, flag) in [(&gone[..], "--fault-schedule"), (&misspelt[..], "--szie")] {
        let out = neurocuts(args);
        let stderr = text(&out.stderr);
        assert!(!out.status.success(), "{args:?} must be refused; stderr: {stderr}");
        assert!(stderr.contains(flag), "the error names {flag}: {stderr}");
    }
}

/// `build --algo` takes a baseline's name in any case; anything else
/// is an error that names it.
#[test]
fn build_refuses_an_unknown_algorithm_by_name() {
    let (rules, _) = rules_and_tree("unknown_algorithm");
    let out = neurocuts(&["build", "--rules", &rules, "--algo", "tcam"]);
    let stderr = text(&out.stderr);
    assert!(!out.status.success(), "an unknown algorithm must be refused; stderr: {stderr}");
    assert!(stderr.contains("unknown algorithm \"tcam\""), "the error names it: {stderr}");
}

/// A tree file whose root lists itself as a child would send a lookup
/// round that cycle forever; loading it fails instead, naming the file.
#[test]
fn classify_refuses_a_tree_that_lists_itself_as_a_child() {
    let (rules, tree) = rules_and_tree("self_child");
    let json = std::fs::read_to_string(&tree).expect("read the built tree");
    let first_child = r#""children":[1,"#;
    assert!(json.contains(first_child), "the root is a cut");
    std::fs::write(&tree, json.replacen(first_child, r#""children":[0,"#, 1))
        .expect("write the edited tree");
    let out = neurocuts(&["classify", "--tree", &tree, "--rules", &rules, "--trace", "100"]);
    let stderr = text(&out.stderr);
    assert!(!out.status.success(), "a cyclic tree must be refused; stderr: {stderr}");
    assert!(stderr.contains(&tree), "the error names the file: {stderr}");
    assert!(stderr.contains("node 0: child 0 does not come after"), "and the node: {stderr}");
}

#[test]
fn update_bench_auto_retrains_and_verifies_the_final_snapshot() {
    let (rules, tree) = rules_and_tree("auto_retrain");
    let out = neurocuts(&[
        "update-bench",
        "--tree",
        &tree,
        "--rules",
        &rules,
        "--updates",
        "200",
        "--trace",
        "1000",
        "--threads",
        "1",
        "--auto-retrain",
        "true",
        "--timesteps",
        "400",
    ]);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "update-bench failed: {}\n{stdout}", text(&out.stderr));
    assert!(stdout.contains("final snapshot verified"), "{stdout}");
    let retrain = stdout.lines().find(|l| l.starts_with("auto-retrain")).expect("worker summary");
    assert!(!retrain.contains(" 0 adopted"), "the worker adopts a retrain: {retrain}");
}

/// The end-to-end anchor for crash recovery: a real `kill -9` of a
/// persisting `update-bench` once its write-ahead log holds records,
/// then `recover` twice.
#[test]
fn recover_after_a_real_kill_replays_the_log_once() {
    let (rules, tree) = rules_and_tree("kill");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("kill").join("state");
    let mut child = Command::new(env!("CARGO_BIN_EXE_neurocuts"))
        .args(["update-bench", "--tree", &tree, "--rules", &rules, "--trace", "256"])
        .args(["--threads", "1", "--updates", "100000000", "--persist-dir"])
        .arg(&dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("update-bench starts");
    // The 16-byte header lands during the attach; records only after.
    let wal = dir.join("wal-00000000.ncwal");
    for _ in 0..6000 {
        if std::fs::metadata(&wal).is_ok_and(|m| m.len() > 16) {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.kill().expect("SIGKILL");
    let status = child.wait().expect("reap the child");
    assert_eq!(status.code(), None, "update-bench ended before the kill: {status}");

    // `recover` prints "  <label> <value> ...": read one value.
    let recover = || {
        let out = neurocuts(&["recover", "--persist-dir", dir.to_str().expect("utf-8 path")]);
        let stdout = text(&out.stdout);
        assert!(out.status.success(), "recover failed: {}\n{stdout}", text(&out.stderr));
        let value = |label: &str| -> u64 {
            let line = stdout.lines().find(|l| l.trim_start().starts_with(label)).expect(label);
            line.trim_start()[label.len()..].split_whitespace().next().unwrap().parse().unwrap()
        };
        (value("wal replayed"), value("epoch"))
    };
    let (replayed, epoch) = recover();
    assert!(replayed >= 1, "the killed run's records replay");
    assert_eq!(recover(), (0, epoch), "a second recover replays nothing");
}
