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
//!   simulation-path crates: their SipHash keys are randomized per process,
//!   so iteration order differs between runs and silently breaks the
//!   "same experiment, same result" contract. Use the deterministic
//!   [`FxHashMap`]/[`FxHashSet`] aliases from `openoptics_sim::hash`, or a
//!   `BTreeMap`/`BTreeSet` where iteration order is observable.
//! * **wall-clock** — `std::time::Instant`/`SystemTime` and `thread_rng`
//!   must not leak into simulation logic; simulation time comes from
//!   `SimTime` and randomness from the seeded `SimRng`. Only the bench
//!   harness (which measures real elapsed time) is exempt.
//! * **relaxed-ordering** — `Ordering::Relaxed` is banned on cross-thread
//!   counters; use acquire/release orderings so counter reads in the
//!   parallel runner are well-defined at any `--jobs` count.
//! * **shared-mutable** — `Mutex`/`RwLock`/`RefCell` are banned in the
//!   sim-path crates' domain-execution modules (`domain.rs`, `engine.rs`,
//!   `event.rs`, `net.rs`): the sharded engine is deterministic *because*
//!   domains share nothing and exchange state only as outbox messages
//!   merged in `(time, src, seq)` order at the epoch barrier; a lock would
//!   let wall-clock scheduling order back into simulated state.
//! * **arch-compose** — `DispatchPolicy`/`PauseMode` may only be assigned
//!   inside the Architecture descriptor module (`crates/core/src/arch.rs`):
//!   everything else composes via `Architecture::with_dispatch` /
//!   `with_pause` and `OpenOpticsNet::deploy`, so a deployed network's
//!   policies always match its descriptor. (`congestion.policy`, the
//!   switch-level knob, is unrelated and exempt.)
//! * **bool-api** — public functions in `openoptics-core` must report
//!   failure as `Result<_, Error>`, not `bool` (predicates named `is_*`,
//!   `has_*`, … are exempt).
//! * **trace-complete** — every `TraceKind` variant must be handled by the
//!   trace stream's `name()` and `to_json()` match arms.
//! * **span-paired** — every `span_begin(..., Stage::X, ...)` call site
//!   with a literal stage must have a matching `span_end(..., Stage::X)`
//!   somewhere in the same crate; a begun lifecycle stage that no code
//!   path closes leaks open spans into every export. Calls whose stage is
//!   a variable (dynamic closes) and the `fn span_begin`/`fn span_end`
//!   definitions themselves are exempt.
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
//! # Flow-aware rules (`lint --graph`)
//!
//! The per-line pass cannot see a `thread_rng` wrapper called three crates
//! away from the engine hot loop. `--graph` adds oolint v2: a hand-rolled
//! lexer ([`lex`]) and item/call extractor ([`graph`]) build a cross-crate
//! call graph, and [`taint`] runs reachability from sim-path entry points
//! to nondeterminism sources (**graph-nondet**), reporting each hit as a
//! full call chain, plus the structural **domain-send** fire-time check on
//! `Outbox::send` sites. `--json` renders findings machine-readable;
//! `--explain <rule>` prints the rationale for any rule.
//!
//! Any rule can be suppressed for one line with a justification:
//!
//! ```text
//! let m = std::collections::HashMap::new(); // oolint: allow(nondet-map, never iterated)
//! ```
//!
//! The annotation may also sit alone on the preceding line(s) — `//` or
//! `/* */` comments both work — and balanced parentheses inside the
//! justification are fine. An annotation without a reason is itself a lint
//! error. The graph rules honor annotations at *any hop* of a chain.
//!
//! [`FxHashMap`]: https://docs.rs/rustc-hash
//! [`FxHashSet`]: https://docs.rs/rustc-hash

pub mod graph;
pub mod lex;
pub mod taint;

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Crates whose sources are simulation-path: nondeterministic containers
/// there can change simulated behavior, not just diagnostics.
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

/// Domain-execution modules of the sim-path crates: the files that run
/// inside (or drive) the sharded engine's epoch loop. Shared-mutability
/// primitives are banned here — domains communicate by message passing
/// (outboxes merged at the epoch barrier), never through locks, so worker
/// scheduling can never influence simulated state.
pub const DOMAIN_EXECUTION_MODULES: &[&str] =
    &["src/domain.rs", "src/engine.rs", "src/event.rs", "src/net.rs"];

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

/// Split a source line into its code part and its `//` comment part, with
/// string-literal contents blanked out of the code part so patterns never
/// match inside literals. Good enough for tidy-style linting; raw strings
/// and multi-line literals are not tracked across lines. For `/* */`-aware
/// splitting across lines, use [`LineSplitter`].
fn split_code_comment(line: &str) -> (String, String) {
    LineSplitter::default().split(line)
}

/// Stateful per-line splitter that also tracks `/* */` block comments
/// across lines, so an `oolint: allow` annotation inside one is recognized
/// and code inside one is not linted. Feed lines top to bottom.
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

/// Scan one code token starting at byte `i` (string/char literal handling
/// shared by the splitters); returns the blanked text to append and the
/// next index.
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
        if sim_path
            && code.contains("std::collections::")
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

        // wall-clock: sim logic must never read the host clock or an
        // unseeded RNG. The bench harness measures real time by design.
        if !is_test && ctx.crate_name != "openoptics-bench" {
            let wall = code.contains("Instant::now")
                || code.contains("SystemTime::now")
                || code.contains("thread_rng")
                || (code.contains("std::time::")
                    && (code.contains("Instant") || code.contains("SystemTime")));
            if wall {
                flag(
                    &mut findings,
                    idx,
                    "wall-clock",
                    "wall-clock time / unseeded randomness in simulation code; use SimTime \
                     and the seeded SimRng"
                        .into(),
                );
            }
        }

        // shared-mutable: the sharded engine's determinism argument rests
        // on domains exchanging state only through outbox messages merged
        // at the epoch barrier. A lock or interior-mutability cell in a
        // domain-execution module reintroduces scheduling-order-dependent
        // state, the exact failure mode the design rules out.
        if sim_path
            && !is_test
            && DOMAIN_EXECUTION_MODULES.iter().any(|m| ctx.rel_path.ends_with(m))
            && (code.contains("Mutex") || code.contains("RwLock") || code.contains("RefCell"))
        {
            flag(
                &mut findings,
                idx,
                "shared-mutable",
                "Mutex/RwLock/RefCell in a domain-execution module; domains communicate \
                 by message passing (Outbox merged at the epoch barrier) only"
                    .into(),
            );
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

        // arch-compose: dispatch/pause policy is owned by the Architecture
        // descriptor (`with_dispatch`/`with_pause` feeding
        // `install_policies`); a direct field assignment anywhere else
        // bypasses the composition API and silently diverges from what
        // `deploy` would install. `congestion.policy` (the switch-level
        // CongestionPolicy knob) is a different field and stays free.
        if ctx.rel_path != "crates/core/src/arch.rs"
            && (code.contains(".pause_mode = ")
                || (code.contains(".policy = ") && !code.contains("congestion.policy")))
        {
            flag(
                &mut findings,
                idx,
                "arch-compose",
                "direct DispatchPolicy/PauseMode assignment outside the Architecture \
                 descriptor module; compose via Architecture::with_dispatch/with_pause \
                 and OpenOpticsNet::deploy"
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

/// One `span_begin`/`span_end` call site with a literal `Stage::` argument,
/// collected per crate for the `span-paired` rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanSite {
    /// Path relative to the workspace root.
    pub file: String,
    /// 1-based line of the call.
    pub line: usize,
    /// Stage identifier (`Flow`, `CalendarWait`, ...).
    pub stage: String,
    /// Whether the call opens the span (`span_begin`) or closes it.
    pub is_begin: bool,
}

/// First `Stage::Ident` literal at or after byte offset `from` in `code`.
fn stage_literal_after(code: &str, from: usize) -> Option<String> {
    let pos = code.get(from..)?.find("Stage::")? + from + "Stage::".len();
    let ident: String =
        code[pos..].chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Collect `span_begin`/`span_end` call sites with literal stages from one
/// file. Definitions (`fn span_begin`) are skipped, calls whose stage is a
/// variable are exempt (dynamic closes), and an
/// `// oolint: allow(span-paired, reason)` annotation drops the site. The
/// returned findings are malformed annotations only; pairing itself is
/// checked per crate by [`check_span_pairing`].
pub fn collect_span_sites(ctx: &FileCtx<'_>, content: &str) -> (Vec<Finding>, Vec<SpanSite>) {
    let mut findings = Vec::new();
    let mut sites = Vec::new();
    let split: Vec<(String, String)> = content.lines().map(split_code_comment).collect();
    for idx in 0..split.len() {
        let code = &split[idx].0;
        for (needle, is_begin) in [("span_begin(", true), ("span_end(", false)] {
            let Some(call) = code.find(needle) else { continue };
            // Skip the API definitions in openoptics-obs itself.
            if code.contains("fn span_begin") || code.contains("fn span_end") {
                continue;
            }
            // The stage argument rides the call line, or — for a call
            // whose argument list spans lines (no `;` yet) — one of the
            // next three. No literal found means the stage is a variable:
            // a dynamic close, exempt by design.
            let mut stage = stage_literal_after(code, call + needle.len());
            if stage.is_none() && !code[call..].contains(';') {
                for next in split.iter().skip(idx + 1).take(3) {
                    stage = stage_literal_after(&next.0, 0);
                    if stage.is_some() || next.0.contains(';') {
                        break;
                    }
                }
            }
            let Some(stage) = stage else { continue };
            let here = allow_in(&split[idx].1, "span-paired");
            let above = if idx > 0 && split[idx - 1].0.trim().is_empty() {
                allow_in(&split[idx - 1].1, "span-paired")
            } else {
                None
            };
            match here.or(above) {
                Some(true) => continue,
                Some(false) => findings.push(Finding {
                    file: ctx.rel_path.to_string(),
                    line: idx + 1,
                    rule: "span-paired",
                    msg: "allow(span-paired) annotation needs a justification".into(),
                }),
                None => {}
            }
            sites.push(SpanSite { file: ctx.rel_path.to_string(), line: idx + 1, stage, is_begin });
        }
    }
    (findings, sites)
}

/// Pairing check over one crate's collected [`SpanSite`]s: every begun
/// literal stage needs at least one literal `span_end` for the same stage
/// somewhere in the crate.
pub fn check_span_pairing(crate_name: &str, sites: &[SpanSite]) -> Vec<Finding> {
    let ends: std::collections::BTreeSet<&str> =
        sites.iter().filter(|s| !s.is_begin).map(|s| s.stage.as_str()).collect();
    let mut findings = Vec::new();
    for s in sites.iter().filter(|s| s.is_begin) {
        if !ends.contains(s.stage.as_str()) {
            findings.push(Finding {
                file: s.file.clone(),
                line: s.line,
                rule: "span-paired",
                msg: format!(
                    "span_begin(Stage::{stage}) has no span_end(Stage::{stage}) anywhere in \
                     crate {crate_name}; every begun stage needs a close path (dynamic closes \
                     via a variable stage are exempt)",
                    stage = s.stage
                ),
            });
        }
    }
    findings
}

/// Completeness check: every `TraceKind` variant must appear in at least
/// two match arms outside the enum definition (the `name()` mapping and the
/// `to_json()` field renderer).
pub fn check_trace_completeness(rel_path: &str, content: &str) -> Vec<Finding> {
    let mut findings = Vec::new();
    let lines: Vec<&str> = content.lines().collect();
    let mut variants: Vec<(String, usize)> = Vec::new();
    let mut depth = 0i64;
    let mut in_enum = false;
    let mut enum_lines = vec![false; lines.len()];
    for (idx, line) in lines.iter().enumerate() {
        let (code, _) = split_code_comment(line);
        if !in_enum {
            if code.contains("pub enum TraceKind") {
                in_enum = true;
                depth = code.matches('{').count() as i64 - code.matches('}').count() as i64;
                enum_lines[idx] = true;
            }
            continue;
        }
        enum_lines[idx] = true;
        if depth == 1 {
            let t = code.trim();
            if t.starts_with(|c: char| c.is_ascii_uppercase()) {
                let name: String =
                    t.chars().take_while(|c| c.is_ascii_alphanumeric() || *c == '_').collect();
                if !name.is_empty() {
                    variants.push((name, idx + 1));
                }
            }
        }
        depth += code.matches('{').count() as i64 - code.matches('}').count() as i64;
        if depth <= 0 {
            in_enum = false;
        }
    }
    if variants.is_empty() {
        findings.push(Finding {
            file: rel_path.to_string(),
            line: 1,
            rule: "trace-complete",
            msg: "could not locate `pub enum TraceKind` variants".into(),
        });
        return findings;
    }
    for (name, line) in variants {
        let needle = format!("TraceKind::{name}");
        let mut refs = 0usize;
        for (idx, l) in lines.iter().enumerate() {
            if enum_lines[idx] {
                continue;
            }
            for (pos, _) in l.match_indices(&needle) {
                // Reject prefix matches (e.g. `FlowPause` vs `FlowPauseX`).
                let after = l[pos + needle.len()..].chars().next();
                if !matches!(after, Some(c) if c.is_ascii_alphanumeric() || c == '_') {
                    refs += 1;
                }
            }
        }
        if refs < 2 {
            findings.push(Finding {
                file: rel_path.to_string(),
                line,
                rule: "trace-complete",
                msg: format!(
                    "TraceKind::{name} has {refs} match-arm reference(s) outside the enum; \
                     every event kind needs a name() arm and a to_json() arm"
                ),
            });
        }
    }
    findings
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
        let mut span_sites: Vec<SpanSite> = Vec::new();
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
                if rel.ends_with("telemetry/src/trace.rs") {
                    findings.append(&mut check_trace_completeness(&rel, &content));
                }
                let (mut sf, mut ss) = collect_span_sites(&ctx, &content);
                findings.append(&mut sf);
                span_sites.append(&mut ss);
            }
        }
        findings.extend(check_span_pairing(&name, &span_sites));
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

/// Run the flow-aware (oolint v2) pass over the workspace rooted at
/// `root`: lex and extract every first-party crate's library sources into
/// a cross-crate call graph, then apply the `graph-nondet` taint
/// reachability and `domain-send` structural rules. Test/bench/example
/// code is excluded — the graph models the shipped sim path.
pub fn run_graph_lint(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut ws = taint::TaintWorkspace::default();

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
        let mut files = Vec::new();
        collect_rs(&dir.join("src"), &mut files)?;
        for f in files {
            let rel = f.strip_prefix(root).unwrap_or(&f).to_string_lossy().into_owned();
            let content = std::fs::read_to_string(&f)?;
            let lexed = lex::lex(&content);
            ws.fns.extend(graph::extract(&name, &rel, &lexed));
            ws.comments.insert(rel, taint::FileComments::from_lexed(&lexed));
        }
    }

    let idx = taint::Index::build(&ws.fns);
    let mut findings = taint::taint_findings(&ws, &idx);
    findings.extend(taint::domain_send_findings(&ws, &idx));
    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(findings)
}

/// Rationale text for every rule, for `lint --explain <rule>`.
pub const RULE_EXPLANATIONS: &[(&str, &str)] = &[
    (
        "nondet-map",
        "std HashMap/HashSet randomize their SipHash keys per process, so iteration order \
         differs between runs. In a sim-path crate that breaks the byte-identical-exports \
         contract. Use FxHashMap/FxHashSet from openoptics_sim::hash, or BTreeMap/BTreeSet \
         where iteration order is observable.",
    ),
    (
        "wall-clock",
        "Instant::now/SystemTime::now/thread_rng read host state, so simulated behavior \
         would differ between runs and machines. Simulation time comes from SimTime; \
         randomness from the seeded SimRng. Only the bench harness measures real time.",
    ),
    (
        "relaxed-ordering",
        "Ordering::Relaxed gives no inter-thread ordering: counter reads in the parallel \
         runner would be schedule-dependent. Use Acquire/Release/AcqRel.",
    ),
    (
        "shared-mutable",
        "Mutex/RwLock/RefCell in a domain-execution module lets wall-clock scheduling \
         order back into simulated state. Domains exchange state only as Outbox messages \
         merged in (time, src, seq) order at the epoch barrier.",
    ),
    (
        "arch-compose",
        "DispatchPolicy/PauseMode may only be assigned in the Architecture descriptor \
         module; everything else composes via Architecture::with_dispatch/with_pause and \
         OpenOpticsNet::deploy, so a deployed network always matches its descriptor.",
    ),
    (
        "bool-api",
        "Public functions in openoptics-core report failure as Result<_, Error>, not bool \
         (is_*/has_*/... predicates exempt).",
    ),
    (
        "trace-complete",
        "Every TraceKind variant needs a name() arm and a to_json() arm; an unhandled \
         event kind would silently vanish from exports.",
    ),
    (
        "span-paired",
        "Every span_begin(Stage::X) with a literal stage needs a span_end(Stage::X) \
         somewhere in the crate; an unclosed lifecycle stage leaks open spans into every \
         export.",
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
    (
        "graph-nondet",
        "Flow-aware taint reachability over the cross-crate call graph: no call chain \
         from a sim-path entry point (engine run loops, DomainScheduler epoch execution, \
         deploy/reconfigure, fault injection) may reach a nondeterminism source (wall \
         clock, OS RNG, std HashMap/HashSet, Ordering::Relaxed, thread-id/env/fs reads, \
         float reductions in the parallel merge). Violations print the full chain; \
         `// oolint: allow(graph-nondet, why)` is honored at any hop.",
    ),
    (
        "domain-send",
        "Cross-domain emission must go through Outbox::send with a fire time provably \
         at or after the epoch lookahead bound — the conservative-PDES contract the \
         sharded engine's determinism rests on. The fire-time argument must reference \
         the epoch bound (epoch_end/lookahead) or be `now + <physical delay>`; anything \
         else needs `// oolint: allow(domain-send, why)`. This is the static counterpart \
         of the strict-invariants runtime assert, which only catches violations a given \
         seed happens to trigger.",
    ),
];

/// Explanation text for one rule, if it exists.
pub fn explain_rule(rule: &str) -> Option<&'static str> {
    RULE_EXPLANATIONS.iter().find(|(r, _)| *r == rule).map(|(_, e)| *e)
}

/// Escape a string for JSON output.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render findings as machine-readable JSON (for `lint --json`; CI uploads
/// this as an artifact).
pub fn findings_to_json(findings: &[Finding]) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"msg\": \"{}\"}}",
            json_escape(&f.file),
            f.line,
            json_escape(f.rule),
            json_escape(&f.msg)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str(&format!("],\n  \"count\": {}\n}}\n", findings.len()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx<'a>(krate: &'a str, path: &'a str) -> FileCtx<'a> {
        FileCtx { crate_name: krate, rel_path: path, is_test_file: false }
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let (code, comment) = split_code_comment(r#"let x = "panic!(no)"; // .unwrap() here"#);
        assert!(!code.contains("panic!("));
        assert!(comment.contains(".unwrap()"));
        let (code, _) = split_code_comment("let c = '\"'; let d = 1;");
        assert!(code.contains("let d = 1;"));
    }

    #[test]
    fn nondet_map_flags_sim_path_only() {
        let src = "use std::collections::HashMap;\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "a.rs"), src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "nondet-map");
        let (f, _) = lint_file(&ctx("openoptics-telemetry", "a.rs"), src);
        assert!(f.is_empty());
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
    fn shared_mutable_flagged_in_domain_execution_modules() {
        let src = "let m = std::sync::Mutex::new(0);\n";
        let (f, _) = lint_file(&ctx("openoptics-sim", "crates/sim/src/domain.rs"), src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "shared-mutable");
        let (f, _) = lint_file(&ctx("openoptics-core", "crates/core/src/engine.rs"), src);
        assert_eq!(f.len(), 1, "{f:?}");
        // RefCell counts too.
        let (f, _) = lint_file(
            &ctx("openoptics-sim", "crates/sim/src/event.rs"),
            "use std::cell::RefCell;\n",
        );
        assert_eq!(f.len(), 1);
        // Other modules of sim-path crates are out of scope.
        let (f, _) = lint_file(&ctx("openoptics-sim", "crates/sim/src/rate.rs"), src);
        assert!(f.is_empty(), "{f:?}");
        // Non-sim-path crates (the bench harness pools results in locks).
        let (f, _) = lint_file(&ctx("openoptics-bench", "crates/bench/src/par.rs"), src);
        assert!(f.is_empty(), "{f:?}");
        // A justified allow suppresses it.
        let ok = "let m = std::sync::Mutex::new(0); \
                  // oolint: allow(shared-mutable, merge point outside the epoch loop)\n";
        let (f, _) = lint_file(&ctx("openoptics-sim", "crates/sim/src/domain.rs"), ok);
        assert!(f.is_empty(), "{f:?}");
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

    #[test]
    fn span_pairing_requires_matching_end() {
        let paired = "let s = spans.span_begin(now, 0, f, p, Stage::Rx, 0);\n\
                      spans.span_end(now, s, Stage::Rx);\n";
        let (f, sites) = collect_span_sites(&ctx("openoptics-core", "a.rs"), paired);
        assert!(f.is_empty(), "{f:?}");
        assert_eq!(sites.len(), 2);
        assert!(check_span_pairing("openoptics-core", &sites).is_empty());

        let unpaired = "let s = spans.span_begin(now, 0, f, p, Stage::Rx, 0);\n";
        let (_, sites) = collect_span_sites(&ctx("openoptics-core", "a.rs"), unpaired);
        let findings = check_span_pairing("openoptics-core", &sites);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "span-paired");
        assert!(findings[0].msg.contains("Stage::Rx"), "{}", findings[0].msg);
    }

    #[test]
    fn span_pairing_exempts_definitions_dynamic_and_allowed() {
        // The API definitions themselves are not call sites.
        let defs = "pub fn span_begin(&self, at: SimTime, stage: Stage) -> u64 {\n\
                    pub fn span_end(&self, at: SimTime, stage: Stage) {}\n";
        let (_, sites) = collect_span_sites(&ctx("openoptics-obs", "a.rs"), defs);
        assert!(sites.is_empty(), "{sites:?}");

        // A variable stage is a dynamic close: exempt, and a Stage literal
        // on a later line must not be misattributed to it.
        let dynamic = "spans.span_begin(now, 0, f, p, stage, 0);\n\
                       let x = Stage::Rx;\n";
        let (_, sites) = collect_span_sites(&ctx("openoptics-core", "a.rs"), dynamic);
        assert!(sites.is_empty(), "{sites:?}");

        // Multi-line calls find the stage on a following line.
        let multiline = "let s = spans.span_begin(\n    now, 0, f, p,\n    Stage::Rx,\n    0);\n";
        let (_, sites) = collect_span_sites(&ctx("openoptics-core", "a.rs"), multiline);
        assert_eq!(sites.len(), 1, "{sites:?}");
        assert_eq!(sites[0].stage, "Rx");

        // An allow annotation with a reason drops the site; without one it
        // is a finding.
        let allowed = "spans.span_begin(now, 0, f, p, Stage::Rx, 0); \
                       // oolint: allow(span-paired, closed dynamically elsewhere)\n";
        let (f, sites) = collect_span_sites(&ctx("openoptics-core", "a.rs"), allowed);
        assert!(f.is_empty() && sites.is_empty(), "{f:?} {sites:?}");
        let bare = "spans.span_begin(now, 0, f, p, Stage::Rx, 0); // oolint: allow(span-paired)\n";
        let (f, _) = collect_span_sites(&ctx("openoptics-core", "a.rs"), bare);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("justification"), "{}", f[0].msg);
    }

    #[test]
    fn arch_compose_flags_policy_assignment_outside_descriptor() {
        let bad = "net.engine.policy = DispatchPolicy::HybridDirect;\n\
                   net.engine.pause_mode = PauseMode::DirectCircuit;\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "crates/core/src/net.rs"), bad);
        assert_eq!(f.iter().filter(|x| x.rule == "arch-compose").count(), 2, "{f:?}");
        // The descriptor module itself is the one sanctioned site.
        let (f, _) = lint_file(&ctx("openoptics-core", "crates/core/src/arch.rs"), bad);
        assert!(f.iter().all(|x| x.rule != "arch-compose"), "{f:?}");
        // The switch-level congestion knob is a different field.
        let knob = "c.congestion.policy = CongestionPolicy::Trim;\n";
        let (f, _) = lint_file(&ctx("openoptics-switch", "crates/switch/src/tor.rs"), knob);
        assert!(f.iter().all(|x| x.rule != "arch-compose"), "{f:?}");
        // Suppressible with a justification, like every rule.
        let allowed = "fresh.policy = self.engine.policy; \
                       // oolint: allow(arch-compose, carrying forward)\n";
        let (f, _) = lint_file(&ctx("openoptics-core", "crates/core/src/net.rs"), allowed);
        assert!(f.iter().all(|x| x.rule != "arch-compose"), "{f:?}");
    }

    #[test]
    fn trace_completeness_detects_missing_arm() {
        let good = "pub enum TraceKind {\n    A { x: u8 },\n    B,\n}\n\
                    fn name(k: TraceKind) { match k { TraceKind::A { .. } => {}, \
                    TraceKind::B => {} } }\n\
                    fn json(k: TraceKind) { match k { TraceKind::A { .. } => {}, \
                    TraceKind::B => {} } }\n";
        assert!(check_trace_completeness("t.rs", good).is_empty());
        let missing = "pub enum TraceKind {\n    A { x: u8 },\n    B,\n}\n\
                       fn name(k: TraceKind) { match k { TraceKind::A { .. } => {}, \
                       TraceKind::B => {} } }\n\
                       fn json(k: TraceKind) { match k { TraceKind::A { .. } => {} } }\n";
        let f = check_trace_completeness("t.rs", missing);
        assert_eq!(f.len(), 1);
        assert!(f[0].msg.contains("TraceKind::B"), "{}", f[0].msg);
    }
}
