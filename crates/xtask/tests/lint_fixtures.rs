//! Driver-level tests for `run_lint` over the fixture workspace in
//! `tests/fixtures/ws/`: positive hits for each determinism rule, allow
//! suppression, ratchet-increase rejection, and the `--update` rewrite.

use std::path::{Path, PathBuf};

use xtask::{run_lint, Finding};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ws")
}

fn hit<'a>(findings: &'a [Finding], rule: &str, file_suffix: &str) -> Vec<&'a Finding> {
    findings.iter().filter(|f| f.rule == rule && f.file.ends_with(file_suffix)).collect()
}

#[test]
fn fixture_positive_hits() {
    let out = run_lint(&fixture_root(), false).expect("fixture lint runs");

    let nondet = hit(&out.findings, "nondet-map", "simlike/src/lib.rs");
    assert_eq!(nondet.len(), 1, "{:?}", out.findings);
    assert_eq!(nondet[0].line, 3, "the bare `use std::collections::HashMap`");

    assert_eq!(hit(&out.findings, "wall-clock", "simlike/src/lib.rs").len(), 1);
    assert_eq!(hit(&out.findings, "relaxed-ordering", "simlike/src/lib.rs").len(), 1);

    // Off the sim path the same bans hold: the std map import, then the
    // env, fs and thread-id reads of `host_state`, one finding per line.
    let lines = |rule| -> Vec<usize> {
        hit(&out.findings, rule, "liblike/src/lib.rs").iter().map(|f| f.line).collect()
    };
    assert_eq!(lines("nondet-map"), [3], "{:?}", out.findings);
    assert_eq!(lines("wall-clock"), [8, 9, 10], "{:?}", out.findings);
    // The root package (not a sim-path crate either) gets no pass for its map.
    assert!(
        out.findings.iter().any(|f| f.rule == "nondet-map" && f.file == "src/lib.rs"),
        "{:?}",
        out.findings
    );
}

#[test]
fn fixture_host_state_exemptions() {
    let out = run_lint(&fixture_root(), false).expect("fixture lint runs");
    // liblike repeats its reads under justified allows (lines 14-22) and in
    // a #[cfg(test)] module (lines 24-32): nothing past `host_state` fires.
    assert!(
        !out.findings.iter().any(|f| f.file.ends_with("liblike/src/lib.rs") && f.line > 10),
        "{:?}",
        out.findings
    );
    // The bench harness may read host state; its std HashSet is still banned.
    assert!(hit(&out.findings, "wall-clock", "benchlike/src/lib.rs").is_empty());
    assert_eq!(hit(&out.findings, "nondet-map", "benchlike/src/lib.rs").len(), 1);
}

#[test]
fn fixture_allow_annotation_suppresses() {
    let out = run_lint(&fixture_root(), false).expect("fixture lint runs");
    // Line 7 is the annotated `pub type Allowed = std::collections::HashSet`;
    // the allow(nondet-map, reason) comment on line 6 must suppress it.
    assert!(
        !out.findings.iter().any(|f| f.file.ends_with("simlike/src/lib.rs") && f.line == 7),
        "{:?}",
        out.findings
    );
}

#[test]
fn fixture_ratchet_increase_rejected() {
    let out = run_lint(&fixture_root(), false).expect("fixture lint runs");
    // The committed budget allows 1 unwrap in openoptics-sim; the fixture
    // source has 2, so the rise must be a finding. demo-root is exactly at
    // budget and must pass.
    let ratchet: Vec<_> = out.findings.iter().filter(|f| f.rule == "ratchet").collect();
    assert_eq!(ratchet.len(), 1, "{:?}", out.findings);
    assert!(ratchet[0].msg.contains("openoptics-sim"), "{}", ratchet[0].msg);
    assert!(ratchet[0].msg.contains("unwraps"), "{}", ratchet[0].msg);
}

fn copy_tree(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.path().is_dir() {
            copy_tree(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
        }
    }
    Ok(())
}

#[test]
fn fixture_update_rewrites_ratchet() {
    // Work on a throwaway copy so --update never mutates the fixture.
    let tmp = std::env::temp_dir().join(format!("oolint-fixture-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    copy_tree(&fixture_root(), &tmp).expect("copy fixture to temp dir");

    let updated = run_lint(&tmp, true).expect("lint --update runs");
    // --update measures; it does not judge the ratchet.
    assert!(!updated.findings.iter().any(|f| f.rule == "ratchet"), "{:?}", updated.findings);
    let rewritten = std::fs::read_to_string(tmp.join("lint-ratchet.toml")).expect("rewritten");
    let budgets = xtask::parse_ratchet(&rewritten);
    assert_eq!(budgets["openoptics-sim"].unwraps, 2, "{rewritten}");
    assert_eq!(budgets["demo-root"].unwraps, 1, "{rewritten}");

    // After the rewrite a plain run accepts the counts: determinism findings
    // remain, ratchet findings are gone.
    let after = run_lint(&tmp, false).expect("post-update lint runs");
    assert!(!after.findings.iter().any(|f| f.rule == "ratchet"), "{:?}", after.findings);
    assert_eq!(after.findings.iter().filter(|f| f.rule == "nondet-map").count(), 4);

    let _ = std::fs::remove_dir_all(&tmp);
}
