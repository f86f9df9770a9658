//! The bench knobs refuse malformed input: `bench_repro` runs with one
//! bad variable and must exit non-zero, naming the variable and the
//! value or tag, before it builds or trains anything.

use std::process::Command;

#[test]
fn malformed_knobs_exit_naming_the_variable_before_anything_runs() {
    for (case, name, value, named) in [
        ("float-steps", "NC_TIMESTEPS", "2e5", "2e5"),
        ("negative-size", "NC_SIZE", "-1", "-1"),
        ("word-variants", "NC_VARIANTS", "all", "all"),
        ("zero-variants", "NC_VARIANTS", "0", "NC_VARIANTS"),
        ("unknown-family", "NC_FAMILIES", "xyz", "xyz"),
        ("one-bad-family", "NC_FAMILIES", "acl, fw ,ipv", "ipv"),
        ("no-family", "NC_FAMILIES", " , ", "names no item"),
    ] {
        let out_path =
            std::env::temp_dir().join(format!("nc-bench-knobs-{}-{case}.json", std::process::id()));
        let out = Command::new(env!("CARGO_BIN_EXE_bench_repro"))
            .envs([("NC_SIZE", "40"), ("NC_TIMESTEPS", "200"), ("NC_VARIANTS", "1")])
            .env("NC_BENCH_OUT", &out_path)
            .env(name, value)
            .output()
            .unwrap();
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{case}: {err}");
        assert!(err.contains(name) && err.contains(named), "{case}: {err}");
        assert!(out.stdout.is_empty(), "{case}: printed figures before refusing");
        assert!(!out_path.exists(), "{case}: wrote {}", out_path.display());
    }
}
