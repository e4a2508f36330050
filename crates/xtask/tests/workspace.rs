//! The checks of `xtask`'s crate docs, run over this workspace: no
//! first-party source names the `Relaxed` ordering, every first-party
//! manifest, and no vendored one, inherits the workspace lint table, and
//! that table still sets `unreachable_pub`.
#![expect(clippy::disallowed_methods, reason = "these tests read the workspace's own files")]

use std::fs;
use std::path::{Path, PathBuf};

fn root() -> &'static Path {
    // crates/xtask -> crates -> the workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR")).ancestors().nth(2).expect("xtask sits two levels down")
}

/// The subdirectories of `dir`, sorted.
fn subdirs(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .expect("directory lists")
        .map(|e| e.expect("directory entry reads").path())
        .filter(|p| p.is_dir())
        .collect();
    out.sort();
    out
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.expect("directory entry reads").path();
        if path.is_dir() && !path.ends_with("target") {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_first_party_source_names_the_relaxed_ordering() {
    let root = root();
    let mut files = Vec::new();
    for dir in ["src", "tests", "examples"].map(|d| root.join(d)) {
        rust_files(&dir, &mut files);
    }
    for krate in subdirs(&root.join("crates")) {
        rust_files(&krate, &mut files);
    }
    assert!(files.len() > 100, "the walk found only {} sources", files.len());
    let findings: Vec<String> = files
        .iter()
        .flat_map(|f| {
            let src = fs::read_to_string(f).expect("source reads");
            let rel = f.strip_prefix(root).unwrap_or(f).display();
            xtask::relaxed_lines(&src).into_iter().map(move |l| format!("{rel}:{l}"))
        })
        .collect();
    assert!(
        findings.is_empty(),
        "Ordering::Relaxed gives cross-thread counters no ordering; use Acquire/Release/AcqRel:\n{}",
        findings.join("\n")
    );
}

/// Whether the manifest in `dir` has a `[lints]` table with
/// `workspace = true`.
fn inherits_workspace_lints(dir: &Path) -> bool {
    let manifest = fs::read_to_string(dir.join("Cargo.toml")).expect("manifest reads");
    manifest
        .split("\n[")
        .filter(|table| table.starts_with("lints]"))
        .any(|table| table.lines().any(|l| l.replace(' ', "") == "workspace=true"))
}

#[test]
fn first_party_manifests_and_only_they_inherit_the_workspace_lints() {
    let root = root();
    let crates = subdirs(&root.join("crates"));
    assert!(crates.len() > 10, "found only {} crates", crates.len());
    for dir in crates.iter().map(PathBuf::as_path).chain([root]) {
        assert!(
            inherits_workspace_lints(dir),
            "{} lacks `[lints] workspace = true`",
            dir.display()
        );
    }
    let vendored = subdirs(&root.join("vendor"));
    assert!(!vendored.is_empty());
    for dir in &vendored {
        assert!(!inherits_workspace_lints(dir), "{} is third-party code", dir.display());
    }
}

/// `unreachable_pub` is what keeps each crate's public surface to the
/// names its root exports: a `pub` item no other crate can reach does not
/// build under CI's `-D warnings`. Deleting its line from the table would
/// drop that gate silently, as deleting `[lints] workspace = true` would
/// for a whole crate.
#[test]
fn the_workspace_lint_table_sets_unreachable_pub() {
    let manifest = fs::read_to_string(root().join("Cargo.toml")).expect("manifest reads");
    let table = manifest
        .split("\n[")
        .find(|table| table.starts_with("workspace.lints.rust]"))
        .expect("the root manifest has a [workspace.lints.rust] table");
    assert!(
        table.lines().any(|l| l.replace(' ', "") == r#"unreachable_pub="warn""#),
        "[workspace.lints.rust] must set unreachable_pub = \"warn\":\n{table}"
    );
}
