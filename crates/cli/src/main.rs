//! `neurocuts` — the command-line front end of the workspace.
//!
//! ```text
//! neurocuts generate --family acl --size 1000 --seed 0 --out rules.txt
//! neurocuts train    --rules rules.txt --timesteps 60000 --c 1.0 \
//!                    --partition simple --out tree.json
//! neurocuts build    --rules rules.txt --algo hicuts --out tree.json
//! neurocuts classify --tree tree.json --rules rules.txt --trace 10000
//! neurocuts serve-bench --tree tree.json --rules rules.txt --threads 8
//! neurocuts update-bench --tree tree.json --rules rules.txt --updates 1000
//! neurocuts recover  --persist-dir state/ --rules rules.txt
//! neurocuts stats    --tree tree.json
//! ```
//!
//! Argument parsing is hand-rolled (five flags per subcommand do not
//! justify a dependency); every subcommand declares the flags it
//! takes, so a misspelt or retired flag is an error that names it.

mod args;
mod commands;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!("{}", commands::USAGE);
        return ExitCode::FAILURE;
    };
    let result = match cmd.as_str() {
        "generate" => commands::generate(rest),
        "train" => commands::train(rest),
        "build" => commands::build(rest),
        "classify" => commands::classify(rest),
        "serve-bench" => commands::serve_bench(rest),
        "update-bench" => commands::update_bench(rest),
        "recover" => commands::recover(rest),
        "stats" => commands::stats(rest),
        "help" | "--help" | "-h" => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        other => Err(format!("unknown subcommand {other:?}\n{}", commands::USAGE)),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}
