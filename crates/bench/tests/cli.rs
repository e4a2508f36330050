//! The `experiments` command line: every usage error exits 2 with the
//! usage line generated from the experiment table, and a run writes no
//! file besides the documented fig8a span artifacts.

use std::process::Command;

fn experiments() -> Command {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
}

#[test]
fn usage_errors_exit_2_with_the_table_generated_usage() {
    let usage = openoptics_bench::usage();
    // Flags earlier versions had are unknown flags now.
    let removed = ["workers", "profile"].map(|name| format!("--{name}"));
    for args in [
        &[][..],
        &["--jobs", "0"],
        &["fig12", &removed[0], "4"],
        &["fig12", "--quik"],
        &["table3", &removed[1]],
        &["no-such-id"],
        &["fig10", "--seeds", "0"],
        &["fig12", "--seeds", "2"],
    ] {
        let out = experiments().args(args).output().expect("experiments starts");
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains(&usage), "{args:?}: {stderr}");
    }
}

#[test]
#[expect(clippy::disallowed_methods, reason = "the test inspects the binary's working directory")]
fn a_run_writes_nothing_into_its_working_directory() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("experiments-empty-cwd");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let out = experiments().arg("table2").current_dir(&dir).output().expect("experiments starts");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).starts_with("\n=== Table 2"));
    let left: Vec<_> = std::fs::read_dir(&dir).expect("scratch dir lists").collect();
    assert!(left.is_empty(), "table2 left files behind: {left:?}");
}
