//! Workspace task runner: `lint` (alias `oolint`), the determinism &
//! robustness pass described in [`xtask`]'s crate docs.
//!
//! ```text
//! cargo run -p xtask -- lint                 # check (CI hard gate)
//! cargo run -p xtask -- lint --explain wall-clock
//! cargo run -p xtask -- lint --update        # rewrite lint-ratchet.toml
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn workspace_root() -> PathBuf {
    // crates/xtask/ -> crates/ -> workspace root.
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().and_then(|p| p.parent()).map(PathBuf::from).unwrap_or(manifest)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: cargo run -p xtask -- lint [--update] [--root PATH]\n       \
         cargo run -p xtask -- lint --explain <rule>"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") | Some("oolint") => lint_cmd(&args[1..]),
        _ => usage(),
    }
}

fn lint_cmd(args: &[String]) -> ExitCode {
    let mut update = false;
    let mut root = workspace_root();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--update" => update = true,
            "--explain" => {
                let Some(rule) = it.next() else {
                    eprintln!("--explain needs a rule name");
                    return ExitCode::FAILURE;
                };
                return explain_cmd(rule);
            }
            "--root" => match it.next() {
                Some(p) => root = PathBuf::from(p),
                None => {
                    eprintln!("--root needs a path");
                    return ExitCode::FAILURE;
                }
            },
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }

    let outcome = match xtask::run_lint(&root, update) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("oolint: i/o error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for f in &outcome.findings {
        eprintln!("{f}");
    }
    let (mut u, mut e, mut p, mut d, mut c) = (0, 0, 0, 0, 0);
    for b in outcome.counts.values() {
        u += b.unwraps;
        e += b.expects;
        p += b.panics;
        d += b.undocumented;
        c += b.narrowing_casts;
    }
    eprintln!(
        "oolint: {} finding(s); ratchet counts: {u} unwraps, {e} expects, {p} panics, \
         {d} undocumented pub items, {c} narrowing casts across {} crates{}",
        outcome.findings.len(),
        outcome.counts.len(),
        if update { " (lint-ratchet.toml rewritten)" } else { "" },
    );
    if outcome.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn explain_cmd(rule: &str) -> ExitCode {
    match xtask::explain_rule(rule) {
        Some(text) => {
            println!("{rule}\n{}\n{text}", "-".repeat(rule.len()));
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("unknown rule `{rule}`; known rules:");
            for (r, _) in xtask::RULE_EXPLANATIONS {
                eprintln!("  {r}");
            }
            ExitCode::FAILURE
        }
    }
}
