//! The workspace checks rustc and clippy cannot express, run as tests under
//! `cargo test --workspace`.
//!
//! Every other rule of the determinism contract is configuration: the
//! `[workspace.lints]` table in the root `Cargo.toml` plus `clippy.toml`
//! (DESIGN.md "Determinism invariants & lint policy"). Two checks are left:
//!
//! * **relaxed-ordering** — `Ordering::Relaxed` gives no inter-thread
//!   ordering, so counter reads in the parallel runner would depend on the
//!   schedule; cross-thread counters use `Acquire`/`Release`/`AcqRel`.
//!   Clippy's `disallowed-*` lists name types, functions and macros, not
//!   enum variants, so this stays a text scan ([`relaxed_lines`]) that
//!   `tests/workspace.rs` runs over every first-party source.
//! * **the manifest guard** in `tests/workspace.rs` — the root package and
//!   every `crates/*` manifest inherit the workspace lint table, no
//!   `vendor/*` manifest does, and the table still sets `unreachable_pub`.
//!   Without it, deleting one line would switch off every rule for a
//!   crate, or let a crate's public surface outgrow what its root exports.

/// 1-based numbers of the lines of `src` whose code names the `Relaxed`
/// ordering (`Ordering::Relaxed`, or `Relaxed` imported on its own).
/// String and char literals and comments are not code.
pub fn relaxed_lines(src: &str) -> Vec<usize> {
    let mut splitter = LineSplitter::default();
    let names_relaxed = |code: &str| {
        let ident = |c: Option<char>| c.is_some_and(|c| c.is_alphanumeric() || c == '_');
        code.match_indices("Relaxed").any(|(i, w)| {
            !ident(code[..i].chars().next_back()) && !ident(code[i + w.len()..].chars().next())
        })
    };
    src.lines()
        .enumerate()
        .filter(|(_, line)| names_relaxed(&splitter.code(line)))
        .map(|(i, _)| i + 1)
        .collect()
}

/// Reduces source lines to their code: string and char literal contents
/// are dropped, and so are `//` and `/* */` comments. Block comments are
/// tracked across lines, so feed lines top to bottom; nested block
/// comments, raw strings and multi-line literals are not tracked.
#[derive(Default)]
struct LineSplitter {
    in_block: bool,
}

impl LineSplitter {
    fn code(&mut self, line: &str) -> String {
        let b = line.as_bytes();
        let mut code = String::with_capacity(line.len());
        let mut i = 0;
        while i < b.len() {
            let next = b.get(i + 1).copied();
            if self.in_block {
                self.in_block = !(b[i] == b'*' && next == Some(b'/'));
                i += if self.in_block { 1 } else { 2 };
                continue;
            }
            match (b[i], next) {
                (b'/', Some(b'/')) => break,
                (b'/', Some(b'*')) => {
                    self.in_block = true;
                    i += 2;
                }
                (b'"', _) => {
                    // Skip to the closing quote, stepping over escapes.
                    i += 1;
                    while i < b.len() && b[i] != b'"' {
                        i += if b[i] == b'\\' { 2 } else { 1 };
                    }
                    i += 1;
                    code.push_str("\"\"");
                }
                // An escaped char literal ('\n', '\'').
                (b'\'', Some(b'\\')) => {
                    i += 2;
                    while i < b.len() && b[i] != b'\'' {
                        i += 1;
                    }
                    i += 1;
                }
                // A plain char literal ('x'); a lifetime ('a) stays code.
                (b'\'', _) if b.get(i + 2) == Some(&b'\'') => i += 3,
                (c, _) => {
                    code.push(c as char);
                    i += 1;
                }
            }
        }
        code
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_code_line_naming_relaxed_is_found() {
        assert_eq!(relaxed_lines("let a = 1;\nx.store(1, Ordering::Relaxed);\n"), [2]);
        assert_eq!(relaxed_lines("use std::sync::atomic::Ordering::{Acquire, Relaxed};\n"), [1]);
        assert_eq!(relaxed_lines("/* a */ x.load(Ordering::Relaxed); // b\n"), [1]);
        assert_eq!(relaxed_lines("let c = '\"'; x.load(Ordering::Relaxed);\n"), [1]);
    }

    #[test]
    fn strings_and_comments_are_not_code() {
        for src in [
            "let s = \"x.load(Ordering::Relaxed)\";\n",
            "let s = \"a \\\" Ordering::Relaxed\";\n",
            "let n = 1; // x.load(Ordering::Relaxed)\n",
            "/// Never `Ordering::Relaxed`.\nfn f() {}\n",
            "let n = /* Ordering::Relaxed */ 1;\n",
            "/*\n  x.load(Ordering::Relaxed);\n*/\nlet n = 1;\n",
            "let m = RelaxedMode::On; let o = Ordering::AcqRel;\n",
        ] {
            assert!(relaxed_lines(src).is_empty(), "{src}");
        }
    }
}
