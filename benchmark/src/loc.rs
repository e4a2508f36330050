//! Size rows: non-blank, non-comment Rust lines per crate — what the
//! ROADMAP's "fewer lines with no benchmark regression" target is read from.

use std::path::{Path, PathBuf};

use crate::run::repo_root;

use crate::metrics::{Values, CRATES};

/// Code lines in Rust source text: blank lines, `//` lines and the inside
/// of `/* */` blocks do not count. A lexer-free approximation — a `/*`
/// inside a string literal would be misread — that is stable from commit to
/// commit, which is what a size trend needs.
pub fn code_lines(text: &str) -> u64 {
    let mut in_block = false;
    let mut n = 0;
    for line in text.lines() {
        let mut rest = line.trim();
        let mut has_code = false;
        while !rest.is_empty() {
            if in_block {
                match rest.find("*/") {
                    Some(i) => {
                        in_block = false;
                        rest = rest[i + 2..].trim_start();
                    }
                    None => break,
                }
            } else if rest.starts_with("//") {
                break;
            } else if let Some(i) = rest.find("/*") {
                has_code |= !rest[..i].trim().is_empty();
                in_block = true;
                rest = &rest[i + 2..];
            } else {
                has_code = true;
                break;
            }
        }
        n += u64::from(has_code);
    }
    n
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n != "target") {
                rust_files(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `loc.total` and `loc.<crate>` for every crate in `metrics::CRATES`.
pub fn count() -> Values {
    let root = repo_root().join("crates");
    let mut v = Values::new();
    let mut total = 0;
    for name in CRATES {
        let mut files = Vec::new();
        rust_files(&root.join(name), &mut files);
        let lines: u64 = files
            .iter()
            .filter_map(|f| std::fs::read_to_string(f).ok())
            .map(|text| code_lines(&text))
            .sum();
        total += lines;
        v.insert(format!("loc.{name}"), lines as f64);
    }
    v.insert("loc.total".to_string(), total as f64);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_blanks_do_not_count() {
        let src = "\n// a comment\nfn f() {} // trailing\n/* block\n still block */\nlet x = 1; /* c */\n   \n/* a */ let y = 2;\n";
        assert_eq!(code_lines(src), 3);
    }

    #[test]
    fn every_crate_is_found() {
        let v = count();
        for name in CRATES {
            assert!(v[&format!("loc.{name}")] > 50.0, "crate {name} not found or empty");
        }
        let sum: f64 = CRATES.iter().map(|c| v[&format!("loc.{c}")]).sum();
        assert_eq!(v["loc.total"], sum);
    }
}
