//! `oolint` — the OpenOptics in-repo determinism & robustness lint pass.
//!
//! A rust-lang/rust-`tidy`-style source linter: plain line-oriented text
//! analysis, no parser dependencies, so it builds in the same offline
//! environment as the rest of the workspace. Invoked as
//! `cargo run -p xtask -- lint` (CI runs it as a hard gate).
//!
//! # Rules
//!
//! * **nondet-map** — `std::collections::{HashMap, HashSet}` are banned in
//!   every first-party crate (tests included): their SipHash keys are
//!   randomized per process, so iteration order differs between runs and
//!   silently breaks the "same experiment, same result" contract. Use the
//!   deterministic [`FxHashMap`]/[`FxHashSet`] aliases from
//!   `openoptics_sim::hash`, or a `BTreeMap`/`BTreeSet` where iteration
//!   order is observable.
//! * **wall-clock** — host state must not leak into simulation logic:
//!   `std::time::Instant`/`SystemTime`, `thread_rng`,
//!   `std::thread::current`, `std::env::` and `std::fs::` are banned in
//!   non-test code. Simulation time comes from `SimTime`, randomness from
//!   the seeded `SimRng`, inputs from the caller. Only the bench harness
//!   (which measures real elapsed time and writes artifacts) is exempt.
//! * **relaxed-ordering** — `Ordering::Relaxed` is banned on cross-thread
//!   counters; use acquire/release orderings so counter reads in the
//!   parallel runner are well-defined at any `--jobs` count.
//! * **bool-api** — public functions in `openoptics-core` must report
//!   failure as `Result<_, Error>`, not `bool` (predicates named `is_*`,
//!   `has_*`, … are exempt).
//! * **ratchet** — counted budgets for `.unwrap()` / `.expect(` / `panic!(`
//!   in first-party code (tests included), stored in `lint-ratchet.toml`.
//!   A rising count fails the lint; `--update` rewrites the file so
//!   improvements lock in.
//! * **doc-coverage** — undocumented `pub` items in library sources join
//!   the same ratchet (`undocumented = n` per crate): documentation
//!   coverage may only improve. Trait-impl methods (rustdoc inherits the
//!   trait's docs), `pub use` re-exports (rustdoc's `missing_docs` skips
//!   them), and test code are exempt.
//! * **numeric-cast** — `as` casts to narrower integer/float types
//!   (`u64 as u32`, `f64 as f32`, ...) in sim-path crates join the ratchet
//!   (`narrowing_casts = n` per crate): silent truncation of sim-time
//!   nanoseconds is a determinism hazard. New sites use
//!   `openoptics_sim::cast` checked helpers or `try_into` instead.
//!
//! `--explain <rule>` prints the rationale for any rule. Any rule can be
//! suppressed for one line with a justification:
//!
//! ```text
//! let m = std::collections::HashMap::new(); // oolint: allow(nondet-map, never iterated)
//! ```
//!
//! The annotation may also sit alone on the preceding line(s) — `//` or
//! `/* */` comments both work — and balanced parentheses inside the
//! justification are fine. An annotation without a reason is itself a lint
//! error.
//!
//! [`FxHashMap`]: https://docs.rs/rustc-hash
//! [`FxHashSet`]: https://docs.rs/rustc-hash

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose sources are simulation-path: the numeric-cast ratchet
/// counts narrowing casts there, where they can change simulated behavior.
pub const SIM_PATH_CRATES: &[&str] = &[
    "openoptics-sim",
    "openoptics-core",
    "openoptics-switch",
    "openoptics-fabric",
    "openoptics-host",
    "openoptics-topo",
    "openoptics-routing",
    "openoptics-workload",
    "openoptics-faults",
    "openoptics-obs",
    "openoptics-ctl",
];

/// Bool-returning name prefixes that are idiomatic predicates, exempt from
/// the `bool-api` rule.
const PREDICATE_PREFIXES: &[&str] = &["is_", "has_", "can_", "should_", "would_", "contains"];

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (`nondet-map`, `wall-clock`, ...).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub msg: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.msg)
    }
}

/// Per-crate counts of panic-prone constructs in first-party code (tests
/// included — a panicking test helper obscures failures just like library
/// code does; only vendored stand-ins are exempt).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// `.unwrap()` call sites.
    pub unwraps: usize,
    /// `.expect(` call sites.
    pub expects: usize,
    /// `panic!(` sites.
    pub panics: usize,
    /// `pub` items in library sources without a doc comment
    /// (doc-coverage; tests, trait impls, and re-exports exempt).
    pub undocumented: usize,
    /// `as` casts to narrower numeric types in sim-path crates
    /// (numeric-cast; non-sim-path crates always count zero).
    pub narrowing_casts: usize,
}

/// Item-introducing keywords counted by the doc-coverage ratchet. `pub use`
/// is deliberately absent: rustdoc's `missing_docs` does not require docs
/// on re-exports.
const PUB_ITEMS: &[&str] = &[
    "pub fn ",
    "pub struct ",
    "pub enum ",
    "pub trait ",
    "pub mod ",
    "pub const ",
    "pub static ",
    "pub type ",
    "pub union ",
];

/// Context for linting one file.
pub struct FileCtx<'a> {
    /// Package name of the owning crate (e.g. `openoptics-sim`).
    pub crate_name: &'a str,
    /// Path relative to the workspace root, for reporting.
    pub rel_path: &'a str,
    /// Whether the whole file is test/bench/example code (by location).
    pub is_test_file: bool,
}

/// Splits a source line into its code part and its comment part, with
/// string-literal contents blanked out of the code part so patterns never
/// match inside literals. Good enough for tidy-style linting; raw strings
/// and multi-line literals are not tracked across lines. `/* */` block
/// comments are tracked across lines, so an `oolint: allow` annotation
/// inside one is recognized and code inside one is not linted. Feed lines
/// top to bottom.
#[derive(Default)]
struct LineSplitter {
    in_block: bool,
}

impl LineSplitter {
    fn split(&mut self, line: &str) -> (String, String) {
        let b = line.as_bytes();
        let mut code = String::with_capacity(line.len());
        let mut comment = String::new();
        let mut i = 0;
        while i < b.len() {
            if self.in_block {
                // Inside a `/* */` comment: accumulate into the comment
                // part until it closes (nesting not tracked — rare enough
                // that the line-oriented pass stays simple).
                if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                    self.in_block = false;
                    i += 2;
                } else {
                    comment.push(b[i] as char);
                    i += 1;
                }
                continue;
            }
            let c = b[i];
            if c == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                self.in_block = true;
                i += 2;
                continue;
            }
            if c == b'/' && i + 1 < b.len() && b[i + 1] == b'/' {
                comment.push_str(&line[i..]);
                return (code, comment);
            }
            let (chunk, advanced) = scan_code_char(b, i);
            code.push_str(&chunk);
            i = advanced;
        }
        (code, comment)
    }
}

/// Scan one code token starting at byte `i` ([`LineSplitter`]'s string/char
/// literal handling); returns the blanked text to append and the next index.
fn scan_code_char(b: &[u8], i: usize) -> (String, usize) {
    let mut code = String::new();
    let mut i = i;
    {
        let c = b[i];
        if c == b'"' {
            // Blank the literal, keep the quotes so the line still scans.
            code.push('"');
            i += 1;
            while i < b.len() {
                if b[i] == b'\\' {
                    code.push(' ');
                    code.push(' ');
                    i += 2;
                    continue;
                }
                if b[i] == b'"' {
                    code.push('"');
                    i += 1;
                    break;
                }
                code.push(' ');
                i += 1;
            }
        } else if c == b'\'' {
            // Char literal ('x', '\n') or lifetime ('a). Skip literals whole.
            if i + 1 < b.len() && b[i + 1] == b'\\' {
                let mut j = i + 2;
                while j < b.len() && b[j] != b'\'' {
                    j += 1;
                }
                for _ in i..=j.min(b.len() - 1) {
                    code.push(' ');
                }
                i = j + 1;
            } else if i + 2 < b.len() && b[i + 2] == b'\'' {
                code.push_str("   ");
                i += 3;
            } else {
                code.push('\'');
                i += 1;
            }
        } else {
            code.push(c as char);
            i += 1;
        }
    }
    (code, i)
}

/// Whether `comment` carries an `oolint: allow(rule, ...)` annotation for
/// `rule`. Returns `None` when absent, `Some(true)` when well-formed, and
/// `Some(false)` when the justification is missing. The closing paren is
/// found by balance, so a justification may itself contain parentheses
/// (`allow(wall-clock, O(1) lookup)`), and trailing text after the close
/// is ignored.
fn allow_in(comment: &str, rule: &str) -> Option<bool> {
    let marker = "oolint: allow(";
    let start = comment.find(marker)? + marker.len();
    let rest = &comment[start..];
    let mut depth = 1usize;
    let mut close = None;
    for (i, c) in rest.char_indices() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    close = Some(i);
                    break;
                }
            }
            _ => {}
        }
    }
    // An unclosed annotation still parses to its end-of-comment content —
    // better to judge the justification than to silently drop the intent.
    let inner = &rest[..close.unwrap_or(rest.len())];
    let mut parts = inner.splitn(2, ',');
    let named = parts.next().unwrap_or("").trim();
    if named != rule {
        return None;
    }
    let reason = parts.next().unwrap_or("").trim();
    Some(!reason.is_empty())
}

/// Numeric `as`-cast targets that narrow on the 64-bit hosts the sim runs
/// on. Casting sim-time nanoseconds (`u64`) or byte counts into these
/// silently truncates — the numeric-cast ratchet counts every such site in
/// sim-path crates. (`u64`/`i64`/`usize`/`f64` targets are widening or
/// same-width and stay free.)
const NARROW_CAST_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32", "f32"];

/// Count narrowing `as` casts on one blanked code line.
fn narrowing_casts_in(code: &str) -> usize {
    let mut n = 0;
    for (pos, _) in code.match_indices(" as ") {
        let after = &code[pos + " as ".len()..];
        let target: String =
            after.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
        if NARROW_CAST_TARGETS.contains(&target.as_str()) {
            n += 1;
        }
    }
    n
}

/// Tracks `#[cfg(test)]` regions across the lines of one file.
#[derive(Default)]
struct TestRegions {
    in_test: bool,
    depth: i64,
    pending: bool,
}

impl TestRegions {
    /// Feed the code part of the next line; returns whether that line is
    /// inside (or introduces) a test region.
    fn feed(&mut self, code: &str) -> bool {
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        if self.in_test {
            self.depth += opens - closes;
            if self.depth <= 0 {
                self.in_test = false;
            }
            return true;
        }
        let mut is_test = false;
        if self.pending {
            is_test = true;
            if opens > 0 {
                self.pending = false;
                self.depth = opens - closes;
                self.in_test = self.depth > 0;
            }
        }
        if code.contains("#[cfg(test)]") {
            self.pending = true;
            is_test = true;
        }
        is_test
    }
}

/// Lint one file: per-line determinism rules plus the ratchet counts.
/// Budgets are only accumulated for non-test library code (`is_test_file`
/// files contribute zero).
pub fn lint_file(ctx: &FileCtx<'_>, content: &str) -> (Vec<Finding>, Budget) {
    let mut findings = Vec::new();
    let mut budget = Budget::default();
    let mut regions = TestRegions::default();
    let lines: Vec<&str> = content.lines().collect();
    let mut splitter = LineSplitter::default();
    let split: Vec<(String, String)> = lines.iter().map(|l| splitter.split(l)).collect();

    let sim_path = SIM_PATH_CRATES.contains(&ctx.crate_name);
    // Brace-depth tracking for the doc-coverage exemption of trait-impl
    // blocks (`impl Trait for Type { ... }`): rustdoc attributes their
    // methods to the trait's docs, so they carry no doc comment here.
    let mut depth = 0i64;
    let mut trait_impl_floor: Option<i64> = None;
    let flag = |findings: &mut Vec<Finding>, idx: usize, rule: &'static str, msg: String| {
        // The annotation may ride the offending line or sit alone on the
        // comment-only lines directly above it (a multi-line `/* */`
        // block included).
        let here = allow_in(&split[idx].1, rule);
        let mut above = None;
        let mut j = idx;
        while above.is_none() && j > 0 && split[j - 1].0.trim().is_empty() {
            j -= 1;
            above = allow_in(&split[j].1, rule);
            // A line with no comment at all ends the annotation window; a
            // whitespace-only comment part (e.g. the `*/` line of a block)
            // keeps the walk going.
            if split[j].1.is_empty() {
                break;
            }
        }
        match here.or(above) {
            Some(true) => {}
            Some(false) => findings.push(Finding {
                file: ctx.rel_path.to_string(),
                line: idx + 1,
                rule,
                msg: format!("allow({rule}) annotation needs a justification: {msg}"),
            }),
            None => {
                findings.push(Finding { file: ctx.rel_path.to_string(), line: idx + 1, rule, msg })
            }
        }
    };

    for idx in 0..lines.len() {
        let (code, _) = &split[idx];
        let in_test_region = regions.feed(code);
        let is_test = ctx.is_test_file || in_test_region;

        // nondet-map: applies to test code too — a set iterated in a test
        // can make the test itself flaky.
        if code.contains("std::collections::")
            && (code.contains("HashMap") || code.contains("HashSet"))
        {
            flag(
                &mut findings,
                idx,
                "nondet-map",
                "std HashMap/HashSet iteration order is randomized per process; use \
                 FxHashMap/FxHashSet from openoptics_sim::hash or a BTreeMap/BTreeSet"
                    .into(),
            );
        }

        // wall-clock: sim logic must never read host state — the clock,
        // an unseeded RNG, the thread id, the environment or the file
        // system. The bench harness measures real time by design.
        if !is_test && ctx.crate_name != "openoptics-bench" {
            let wall = code.contains("Instant::now")
                || code.contains("SystemTime::now")
                || code.contains("thread_rng")
                || code.contains("std::thread::current")
                || code.contains("std::env::")
                || code.contains("std::fs::")
                || (code.contains("std::time::")
                    && (code.contains("Instant") || code.contains("SystemTime")));
            if wall {
                flag(
                    &mut findings,
                    idx,
                    "wall-clock",
                    "host state (wall clock, unseeded RNG, thread id, env, fs) in simulation \
                     code; use SimTime, the seeded SimRng and caller-supplied inputs"
                        .into(),
                );
            }
        }

        // relaxed-ordering: cross-thread counters need acquire/release.
        if code.contains("Ordering::Relaxed") {
            flag(
                &mut findings,
                idx,
                "relaxed-ordering",
                "Ordering::Relaxed on shared atomics; use Acquire/Release/AcqRel so \
                 cross-thread counter reads are well-defined"
                    .into(),
            );
        }

        // bool-api: core's public API reports failure as Result, not bool.
        if ctx.crate_name == "openoptics-core" && !is_test && code.contains("pub fn ") {
            let mut sig = String::new();
            for (c, _) in split.iter().skip(idx).take(8) {
                sig.push_str(c);
                sig.push(' ');
                if c.contains('{') || c.contains(';') {
                    break;
                }
            }
            if let Some(ret) = sig.split("->").nth(1) {
                let ret = ret.trim();
                if ret.starts_with("bool") {
                    let name = sig
                        .split("pub fn ")
                        .nth(1)
                        .unwrap_or("")
                        .split(['(', '<', ' '])
                        .next()
                        .unwrap_or("");
                    if !PREDICATE_PREFIXES.iter().any(|p| name.starts_with(p)) {
                        flag(
                            &mut findings,
                            idx,
                            "bool-api",
                            format!(
                                "public fn `{name}` returns bool; core API failures must be \
                                 Result<_, Error> (predicates may be named is_*/has_*/...)"
                            ),
                        );
                    }
                }
            }
        }

        // doc-coverage: a `pub` item in library source needs a doc comment
        // (or a `#[doc = ...]` attribute) right above it. Attribute lines
        // between the docs and the item are skipped.
        let trimmed = code.trim_start();
        if !is_test
            && trait_impl_floor.is_none()
            && PUB_ITEMS.iter().any(|p| trimmed.starts_with(p))
        {
            let mut documented = false;
            let mut j = idx;
            while j > 0 {
                j -= 1;
                let raw = lines[j].trim_start();
                if raw.starts_with("#[doc") || raw.starts_with("#![doc") {
                    documented = true;
                    break;
                }
                if raw.starts_with("#[") || raw == ")]" {
                    continue;
                }
                documented = raw.starts_with("///");
                break;
            }
            if !documented {
                budget.undocumented += 1;
            }
        }
        if trait_impl_floor.is_none() && trimmed.starts_with("impl") && code.contains(" for ") {
            trait_impl_floor = Some(depth);
        }
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        if let Some(floor) = trait_impl_floor {
            if depth <= floor && code.contains('}') {
                trait_impl_floor = None;
            }
        }

        // Ratchet counts: all first-party code, tests included. The budget
        // is per-crate and per-category, so an unwrap->expect conversion
        // shows up as the unwrap count falling.
        budget.unwraps += code.matches(".unwrap()").count();
        budget.expects += code.matches(".expect(").count();
        budget.panics += code.matches("panic!(").count();
        // numeric-cast: silent truncation is a determinism hazard only
        // where the numbers feed simulated behavior.
        if sim_path {
            budget.narrowing_casts += narrowing_casts_in(code);
        }
    }
    (findings, budget)
}

/// Parse `lint-ratchet.toml` (a flat `[crate]` / `key = n` subset of TOML).
pub fn parse_ratchet(content: &str) -> BTreeMap<String, Budget> {
    let mut map = BTreeMap::new();
    let mut current: Option<String> = None;
    for line in content.lines() {
        let t = line.trim();
        if t.is_empty() || t.starts_with('#') {
            continue;
        }
        if let Some(name) = t.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            current = Some(name.trim().to_string());
            map.entry(name.trim().to_string()).or_insert_with(Budget::default);
            continue;
        }
        let Some(crate_name) = &current else { continue };
        let mut kv = t.splitn(2, '=');
        let (k, v) = (kv.next().unwrap_or("").trim(), kv.next().unwrap_or("").trim());
        let Ok(n) = v.parse::<usize>() else { continue };
        let b = map.entry(crate_name.clone()).or_insert_with(Budget::default);
        match k {
            "unwraps" => b.unwraps = n,
            "expects" => b.expects = n,
            "panics" => b.panics = n,
            "undocumented" => b.undocumented = n,
            "narrowing_casts" => b.narrowing_casts = n,
            _ => {}
        }
    }
    map
}

/// Render ratchet budgets back to the committed TOML format.
pub fn render_ratchet(budgets: &BTreeMap<String, Budget>) -> String {
    let mut out = String::from(
        "# oolint ratchet: counted budgets for panic-prone constructs in first-party\n\
         # code (tests included; vendored stand-ins exempt). CI fails when any count\n\
         # rises above its budget; after lowering a count, run\n\
         # `cargo run -p xtask -- lint --update` to lock the improvement in. Do not\n\
         # raise numbers by hand — convert the call site to Result<_, Error> or a\n\
         # documented `expect` instead. `undocumented` counts public items in\n\
         # library sources without a doc comment (doc-coverage): document the\n\
         # item, don't bump the number. `narrowing_casts` counts `as` casts to\n\
         # narrower numeric types in sim-path crates (numeric-cast): use the\n\
         # openoptics_sim::cast checked helpers or try_into instead.\n",
    );
    for (name, b) in budgets {
        out.push_str(&format!(
            "\n[{name}]\nunwraps = {}\nexpects = {}\npanics = {}\nundocumented = {}\n\
             narrowing_casts = {}\n",
            b.unwraps, b.expects, b.panics, b.undocumented, b.narrowing_casts
        ));
    }
    out
}

/// Compare measured counts against the committed budgets. Any rise is a
/// finding; crates absent from the file have a zero budget (run `--update`
/// to seed them).
pub fn compare_ratchet(
    budgets: &BTreeMap<String, Budget>,
    counts: &BTreeMap<String, Budget>,
) -> Vec<Finding> {
    let mut findings = Vec::new();
    for (name, got) in counts {
        let budget = budgets.get(name).copied().unwrap_or_default();
        let missing = !budgets.contains_key(name);
        for (what, got_n, max_n) in [
            ("unwraps", got.unwraps, budget.unwraps),
            ("expects", got.expects, budget.expects),
            ("panics", got.panics, budget.panics),
            ("undocumented", got.undocumented, budget.undocumented),
            ("narrowing_casts", got.narrowing_casts, budget.narrowing_casts),
        ] {
            if got_n > max_n {
                let hint = if missing {
                    " (crate missing from lint-ratchet.toml; run `cargo run -p xtask -- lint \
                     --update` to seed it)"
                } else {
                    ""
                };
                let advice = match what {
                    "undocumented" => "document the new public items (///)",
                    "narrowing_casts" => {
                        "use the openoptics_sim::cast checked helpers or try_into instead of \
                         a narrowing `as` cast"
                    }
                    _ => "convert the new call sites to Result<_, Error> or a documented expect",
                };
                findings.push(Finding {
                    file: "lint-ratchet.toml".into(),
                    line: 1,
                    rule: "ratchet",
                    msg: format!("{name}: {what} rose to {got_n} (budget {max_n}); {advice}{hint}"),
                });
            }
        }
    }
    findings
}

/// Recursively collect `.rs` files under `dir` (skipping `target/`).
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.exists() {
        return Ok(());
    }
    let mut entries: Vec<_> =
        std::fs::read_dir(dir)?.collect::<Result<Vec<_>, _>>()?.into_iter().collect();
    entries.sort_by_key(|e| e.path());
    for e in entries {
        let p = e.path();
        let name = e.file_name();
        let name = name.to_string_lossy();
        if p.is_dir() {
            if name == "target" {
                continue;
            }
            collect_rs(&p, out)?;
        } else if name.ends_with(".rs") {
            out.push(p);
        }
    }
    Ok(())
}

/// Package name from a crate directory's `Cargo.toml`.
fn package_name(crate_dir: &Path) -> std::io::Result<String> {
    let manifest = std::fs::read_to_string(crate_dir.join("Cargo.toml"))?;
    for line in manifest.lines() {
        let t = line.trim();
        if let Some(rest) = t.strip_prefix("name") {
            let rest = rest.trim_start();
            if let Some(v) = rest.strip_prefix('=') {
                return Ok(v.trim().trim_matches('"').to_string());
            }
        }
    }
    Ok(crate_dir.file_name().map(|n| n.to_string_lossy().into_owned()).unwrap_or_default())
}

/// Result of a full workspace lint.
pub struct LintOutcome {
    /// All violations, in path order.
    pub findings: Vec<Finding>,
    /// Measured per-crate budgets.
    pub counts: BTreeMap<String, Budget>,
}

/// Lint the workspace rooted at `root`. When `update` is set the ratchet
/// file is rewritten with the measured counts (and ratchet comparisons are
/// skipped — the file now matches by construction).
pub fn run_lint(root: &Path, update: bool) -> std::io::Result<LintOutcome> {
    let mut findings = Vec::new();
    let mut counts: BTreeMap<String, Budget> = BTreeMap::new();

    // Crate directories: every `crates/*` member except the linter itself
    // (its sources quote the banned patterns as string literals), plus the
    // root `openoptics` package. `vendor/` stand-ins are third-party code.
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> =
            std::fs::read_dir(&crates)?.collect::<Result<Vec<_>, _>>()?.into_iter().collect();
        entries.sort_by_key(|e| e.path());
        for e in entries {
            if e.path().is_dir() && e.file_name() != "xtask" {
                crate_dirs.push(e.path());
            }
        }
    }
    crate_dirs.push(root.to_path_buf());

    for dir in &crate_dirs {
        let name = package_name(dir)?;
        let budget = counts.entry(name.clone()).or_default();
        let subdirs: &[&str] =
            if *dir == root { &["src", "tests", "examples"] } else { &["src", "tests", "benches"] };
        for sub in subdirs {
            let mut files = Vec::new();
            collect_rs(&dir.join(sub), &mut files)?;
            for f in files {
                let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
                let is_test_file = *sub != "src";
                let content = std::fs::read_to_string(&f)?;
                let ctx = FileCtx { crate_name: &name, rel_path: &rel, is_test_file };
                let (mut fs, b) = lint_file(&ctx, &content);
                findings.append(&mut fs);
                budget.unwraps += b.unwraps;
                budget.expects += b.expects;
                budget.panics += b.panics;
                budget.undocumented += b.undocumented;
                budget.narrowing_casts += b.narrowing_casts;
            }
        }
    }

    let ratchet_path = root.join("lint-ratchet.toml");
    if update {
        std::fs::write(&ratchet_path, render_ratchet(&counts))?;
    } else {
        let budgets = match std::fs::read_to_string(&ratchet_path) {
            Ok(s) => parse_ratchet(&s),
            Err(_) => BTreeMap::new(),
        };
        findings.extend(compare_ratchet(&budgets, &counts));
    }
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(LintOutcome { findings, counts })
}

/// Rationale text for every rule, for `lint --explain <rule>`.
pub const RULE_EXPLANATIONS: &[(&str, &str)] = &[
    (
        "nondet-map",
        "std HashMap/HashSet randomize their SipHash keys per process, so iteration order \
         differs between runs; anything that feeds an export breaks the \
         byte-identical-exports contract. Banned in every first-party crate. Use \
         FxHashMap/FxHashSet from openoptics_sim::hash, or BTreeMap/BTreeSet where \
         iteration order is observable.",
    ),
    (
        "wall-clock",
        "Instant::now/SystemTime::now/thread_rng/std::thread::current/std::env::/std::fs:: \
         read host state, so simulated behavior would differ between runs and machines. \
         Simulation time comes from SimTime, randomness from the seeded SimRng, inputs \
         from the caller. Banned in non-test code of every first-party crate; only the \
         bench harness (real elapsed time, artifact files) is exempt.",
    ),
    (
        "relaxed-ordering",
        "Ordering::Relaxed gives no inter-thread ordering: counter reads in the parallel \
         runner would be schedule-dependent. Use Acquire/Release/AcqRel.",
    ),
    (
        "bool-api",
        "Public functions in openoptics-core report failure as Result<_, Error>, not bool \
         (is_*/has_*/... predicates exempt).",
    ),
    (
        "ratchet",
        "Counted budgets for unwrap/expect/panic and undocumented pub items, stored in \
         lint-ratchet.toml. Counts may only fall; `lint --update` locks improvements in.",
    ),
    (
        "doc-coverage",
        "Undocumented pub items in library sources count against the per-crate \
         `undocumented` ratchet budget; documentation coverage may only improve.",
    ),
    (
        "numeric-cast",
        "`as` casts to narrower numeric types (u64 as u32, f64 as f32, ...) silently \
         truncate; for sim-time nanoseconds that is a determinism hazard. Sim-path \
         crates count them against the per-crate `narrowing_casts` ratchet budget; new \
         sites use the openoptics_sim::cast checked helpers or try_into.",
    ),
];

/// Explanation text for one rule, if it exists.
pub fn explain_rule(rule: &str) -> Option<&'static str> {
    RULE_EXPLANATIONS.iter().find(|(r, _)| *r == rule).map(|(_, e)| *e)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(krate: &'a str, path: &'a str) -> FileCtx<'a> {
        FileCtx { crate_name: krate, rel_path: path, is_test_file: false }
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let mut splitter = LineSplitter::default();
        let (code, comment) = splitter.split(r#"let x = "panic!(no)"; // .unwrap() here"#);
        assert!(!code.contains("panic!("));
        assert!(comment.contains(".unwrap()"));
        let (code, _) = splitter.split("let c = '\"'; let d = 1;");
        assert!(code.contains("let d = 1;"));
    }

    #[test]
    fn nondet_map_flags_every_crate() {
        let src = "use std::collections::HashMap;\n";
        for krate in ["openoptics-core", "openoptics-telemetry", "openoptics-bench"] {
            let (f, _) = lint_file(&ctx(krate, "a.rs"), src);
            assert_eq!(f.len(), 1, "{krate}: {f:?}");
            assert_eq!(f[0].rule, "nondet-map");
        }
    }

    #[test]
    fn allow_annotation_suppresses_with_reason() {
        let allowed =
            "use std::collections::HashMap; // oolint: allow(nondet-map, never iterated)\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), allowed);
        assert!(f.is_empty(), "{f:?}");
        let above = "// oolint: allow(nondet-map, alias over deterministic hasher)\n\
                     use std::collections::HashMap;\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), above);
        assert!(f.is_empty(), "{f:?}");
        let bare = "use std::collections::HashMap; // oolint: allow(nondet-map)\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), bare);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("justification"), "{}", f[0].msg);
    }

    #[test]
    fn wall_clock_flagged_outside_bench() {
        let src = "let t0 = std::time::Instant::now();\n";
        let (f, _) = lint_file(&ctx("openoptics-host", "a.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "wall-clock");
        let (f, _) = lint_file(&ctx("openoptics-bench", "a.rs"), src);
        assert!(f.is_empty());
        // Mentioning Instant in a doc comment is fine.
        let (f, _) = lint_file(&ctx("openoptics-host", "a.rs"), "/// Instant of the switch.\n");
        assert!(f.is_empty());
    }

    #[test]
    fn relaxed_ordering_flagged_everywhere() {
        let src = "x.store(1, Ordering::Relaxed);\n";
        let (f, _) = lint_file(&ctx("openoptics-bench", "a.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "relaxed-ordering");
    }

    #[test]
    fn bool_api_exempts_predicates() {
        let bad = "pub fn connect(&mut self) -> bool {\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "bool-api");
        let pred = "pub fn is_ta(&self) -> bool {\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), pred);
        assert!(f.is_empty(), "{f:?}");
        // Multi-line signature.
        let multi = "pub fn deploy(\n    &mut self,\n    n: u32,\n) -> bool {\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), multi);
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn ratchet_counts_tests_too_but_not_strings_or_comments() {
        let src = "fn a() { x.unwrap(); y.expect(\"b\"); }\n\
                   // x.unwrap() in a comment does not count\n\
                   fn s() { let m = \"panic!(in a string)\"; }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t() { z.unwrap(); panic!(\"tests count too\"); }\n\
                   }\n\
                   fn b() { panic!(\"real\"); }\n";
        let (_, b) = lint_file(&ctx("openoptics-sim", "a.rs"), src);
        assert_eq!(
            b,
            Budget { unwraps: 2, expects: 1, panics: 2, undocumented: 0, narrowing_casts: 0 }
        );
    }

    #[test]
    fn numeric_cast_counts_narrowing_in_sim_path_only() {
        let src = "let a = t as u32;\nlet b = t as u64;\nlet c = x as f32;\n\
                   let d = y as usize;\nlet e = (n as u16) + (m as u8);\n";
        let (_, b) = lint_file(&ctx("openoptics-core", "a.rs"), src);
        assert_eq!(b.narrowing_casts, 4, "{b:?}");
        // Non-sim-path crates are out of scope for the cast ratchet.
        let (_, b) = lint_file(&ctx("openoptics-bench", "a.rs"), src);
        assert_eq!(b.narrowing_casts, 0, "{b:?}");
        // Strings and comments never count.
        let quoted = "// u64 as u32 explained\nlet s = \"cast as u32\";\n";
        let (_, b) = lint_file(&ctx("openoptics-core", "a.rs"), quoted);
        assert_eq!(b.narrowing_casts, 0, "{b:?}");
    }

    #[test]
    fn allow_accepts_parens_in_justification_and_trailing_text() {
        let nested = "use std::collections::HashMap; \
                      // oolint: allow(nondet-map, O(1) lookup, never iterated)\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), nested);
        assert!(f.is_empty(), "{f:?}");
        let trailing = "use std::collections::HashMap; \
                        // oolint: allow(nondet-map, keyed lookups only) -- see DESIGN.md\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), trailing);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn allow_recognized_in_block_comments() {
        // Single-line block comment on the flagged line.
        let inline = "use std::collections::HashMap; \
                      /* oolint: allow(nondet-map, never iterated) */\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), inline);
        assert!(f.is_empty(), "{f:?}");
        // Multi-line block comment above the flagged line: the annotation
        // rides one of its lines.
        let above = "/* Discussed in review:\n \
                        oolint: allow(nondet-map, alias over deterministic hasher)\n \
                     */\nuse std::collections::HashMap;\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), above);
        assert!(f.is_empty(), "{f:?}");
        // Code *inside* a block comment is not linted.
        let commented = "/*\nuse std::collections::HashMap;\n*/\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), commented);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn doc_coverage_counts_undocumented_pub_items() {
        // Documented items pass, attributes between docs and item are
        // skipped, and `#[doc = ...]` counts as documentation.
        let good = "/// Documented.\npub fn a() {}\n\
                    /// Documented.\n#[derive(Debug)]\npub struct S;\n\
                    #[doc = \"included\"]\npub mod m {}\n";
        let (_, b) = lint_file(&ctx("openoptics-core", "src/a.rs"), good);
        assert_eq!(b.undocumented, 0, "{b:?}");

        let bare = "pub fn a() {}\npub struct S;\npub use other::Thing;\n";
        let (_, b) = lint_file(&ctx("openoptics-core", "src/a.rs"), bare);
        assert_eq!(b.undocumented, 2, "pub use is exempt: {b:?}");

        // Trait-impl methods inherit the trait's docs; inherent-impl
        // methods do not.
        let impls = "impl fmt::Display for S {\n    pub fn undoc(&self) {}\n}\n\
                     impl S {\n    pub fn also_undoc(&self) {}\n}\n";
        let (_, b) = lint_file(&ctx("openoptics-core", "src/a.rs"), impls);
        assert_eq!(b.undocumented, 1, "{b:?}");

        // Test files and #[cfg(test)] regions contribute nothing.
        let (_, b) = lint_file(
            &FileCtx { crate_name: "openoptics-core", rel_path: "tests/a.rs", is_test_file: true },
            bare,
        );
        assert_eq!(b.undocumented, 0, "{b:?}");
        let in_mod = "#[cfg(test)]\nmod tests {\n    pub fn helper() {}\n}\n";
        let (_, b) = lint_file(&ctx("openoptics-core", "src/a.rs"), in_mod);
        assert_eq!(b.undocumented, 0, "{b:?}");
    }

    #[test]
    fn ratchet_round_trip_and_compare() {
        let mut counts = BTreeMap::new();
        counts.insert(
            "a".to_string(),
            Budget { unwraps: 2, expects: 1, panics: 0, undocumented: 4, narrowing_casts: 7 },
        );
        counts.insert(
            "b".to_string(),
            Budget { unwraps: 0, expects: 0, panics: 3, undocumented: 0, narrowing_casts: 0 },
        );
        let rendered = render_ratchet(&counts);
        assert_eq!(parse_ratchet(&rendered), counts);
        // Equal counts pass; a rise fails; a drop passes.
        assert!(compare_ratchet(&counts, &counts).is_empty());
        let mut worse = counts.clone();
        worse.get_mut("a").unwrap().unwraps = 3;
        let f = compare_ratchet(&counts, &worse);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("rose to 3"), "{}", f[0].msg);
        let mut better = counts.clone();
        better.get_mut("b").unwrap().panics = 0;
        assert!(compare_ratchet(&counts, &better).is_empty());
        // Unknown crate: zero budget.
        let mut extra = counts.clone();
        extra.insert(
            "c".to_string(),
            Budget { unwraps: 1, expects: 0, panics: 0, undocumented: 0, narrowing_casts: 0 },
        );
        let f = compare_ratchet(&counts, &extra);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("missing"), "{}", f[0].msg);
    }
}
