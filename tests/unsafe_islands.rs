//! `unsafe` is confined to two files: the typed payload views of
//! `crates/simmpi/src/datatype.rs` and the `GlobalAlloc` impl of
//! `shims/alloc-counter/src/lib.rs`.  A new island anywhere else under
//! `crates/*/src`, `shims/*/src` or `src/` fails here instead of waiting for
//! an audit, and so does a new `unsafe` line inside an island: the number of
//! lines using it is pinned per file.
//!
//! What counts is a line using the keyword as a whole identifier outside
//! `//` comments, so lint names (`#![forbid(unsafe_code)]`,
//! `unsafe_op_in_unsafe_fn`) and `// SAFETY:` prose do not.

use std::path::{Path, PathBuf};

/// Each island and the number of its lines that use `unsafe`.
const ISLANDS: [(&str, usize); 2] = [
    ("crates/simmpi/src/datatype.rs", 5),
    ("shims/alloc-counter/src/lib.rs", 9),
];

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display()));
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn unsafe_lines(source: &str) -> usize {
    source
        .lines()
        .filter(|line| {
            let code = line.split("//").next().unwrap();
            code.split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .any(|word| word == "unsafe")
        })
        .count()
}

#[test]
fn unsafe_appears_only_in_its_two_islands() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    rust_files(&root.join("src"), &mut files);
    for group in ["crates", "shims"] {
        for member in std::fs::read_dir(root.join(group)).unwrap() {
            let src = member.unwrap().path().join("src");
            if src.is_dir() {
                rust_files(&src, &mut files);
            }
        }
    }
    // The walk itself must keep finding the tree it guards.
    assert!(files.len() >= 50, "only {} source files found", files.len());

    let mut found: Vec<(String, usize)> = files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap();
            let lines = unsafe_lines(&std::fs::read_to_string(path).unwrap());
            (rel.to_string_lossy().replace('\\', "/"), lines)
        })
        .filter(|&(_, lines)| lines > 0)
        .collect();
    found.sort();
    let expected: Vec<(String, usize)> = ISLANDS
        .iter()
        .map(|&(file, lines)| (file.to_string(), lines))
        .collect();
    assert_eq!(
        found, expected,
        "files using `unsafe`, with their `unsafe` lines"
    );
}
