//! Every public item has a consumer or a stated reason to be public.
//!
//! The items are the declarations listed in `docs/api-surface.txt` (the
//! dump `scripts/api-surface.sh` writes and the CI drift gate keeps
//! current); `pub use` re-exports are paths to items, not items.  An item is
//! used when its name appears as a whole identifier in the non-test code of
//! *another* file under `crates/*/src`, `src/`, `shims/*/src`,
//! `benchmarks/src` or `examples/`.  A file's non-test code is what stands
//! before its first `#[cfg(test)]` line, `//` comments removed — the same
//! cut `scripts/loc.sh` counts by, so a second `#[cfg(test)]` line, which
//! would hide every later line from both, fails here too.
//!
//! The name a line declares (the identifier after `fn`, `struct`, `enum`,
//! `trait`, `type`, `mod`, `const` or `static`) is not a use of it.
//!
//! An unused item that is public on purpose is listed in
//! `docs/api-intended.txt` as `<file>: <name> — <reason>`.  The test fails
//! on an item that is neither used nor listed, and on an entry that names
//! no unused item of the dump, so the list cannot go stale.

use std::collections::{BTreeSet, HashSet};
use std::path::{Path, PathBuf};

/// The trees whose non-test code counts as a consumer.
const CONSUMER_TREES: [&str; 5] = [
    "crates/*/src",
    "src",
    "shims/*/src",
    "benchmarks/src",
    "examples",
];

/// The trees held to one `#[cfg(test)]` line per file.
const ONE_CUT_TREES: [&str; 3] = ["crates/*/src", "src", "shims/*/src"];

const TEST_CUT: &str = "#[cfg(test)]";

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

/// The `.rs` files of `trees` as paths relative to the repo root, with
/// their contents.
fn sources(root: &Path, trees: &[&str]) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for tree in trees {
        match tree.split_once("/*/") {
            Some((group, sub)) => {
                for member in std::fs::read_dir(root.join(group)).unwrap() {
                    let dir = member.unwrap().path().join(sub);
                    if dir.is_dir() {
                        rust_files(&dir, &mut files);
                    }
                }
            }
            None => rust_files(&root.join(tree), &mut files),
        }
    }
    files.sort();
    files
        .iter()
        .map(|path| {
            let rel = path.strip_prefix(root).unwrap();
            let text = std::fs::read_to_string(path).unwrap();
            (rel.to_string_lossy().replace('\\', "/"), text)
        })
        .collect()
}

fn is_test_cut(line: &str) -> bool {
    line.trim_start().starts_with(TEST_CUT)
}

/// The keywords whose next identifier, after white space only, is the name
/// a line declares.
const DECLARATORS: [&str; 8] = [
    "fn", "struct", "enum", "trait", "type", "mod", "const", "static",
];

/// The identifiers of a file's non-test, non-comment code, less the names
/// it declares: a file's own `pub fn all_crashed` is not a use of another
/// file's `all_crashed`.
fn identifiers(source: &str) -> HashSet<&str> {
    let mut words = HashSet::new();
    for line in source.lines().take_while(|line| !is_test_cut(line)) {
        let mut rest = line.split("//").next().unwrap();
        let mut declared = false;
        loop {
            let start = rest.find(|c: char| c.is_alphanumeric() || c == '_');
            let Some(start) = start else { break };
            let gap = &rest[..start];
            rest = &rest[start..];
            let end = rest
                .find(|c: char| !(c.is_alphanumeric() || c == '_'))
                .unwrap_or(rest.len());
            let word = &rest[..end];
            rest = &rest[end..];
            if !(declared && gap.trim().is_empty()) {
                words.insert(word);
            }
            declared = DECLARATORS.contains(&word);
        }
    }
    words
}

/// The declared name of a dump line's item, or `None` for a re-export.
fn item_name(decl: &str) -> Option<&str> {
    let mut words = decl.split_whitespace().skip(1).peekable();
    loop {
        match words
            .next()
            .unwrap_or_else(|| panic!("no item in `{decl}`"))
        {
            "use" => return None,
            "async" | "unsafe" => {}
            "const" if matches!(words.peek(), Some(&"fn" | &"unsafe")) => {}
            word if DECLARATORS.contains(&word) => break,
            other => panic!("unexpected `{other}` in `{decl}`"),
        }
    }
    let rest = words
        .next()
        .unwrap_or_else(|| panic!("no name in `{decl}`"));
    let end = rest
        .find(|c: char| !(c.is_alphanumeric() || c == '_'))
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

#[test]
fn every_public_item_is_used_or_intended() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = sources(root, &CONSUMER_TREES);
    // The walk itself must keep finding the trees it reads.
    assert!(files.len() >= 80, "only {} source files found", files.len());
    let idents: Vec<(&str, HashSet<&str>)> = files
        .iter()
        .map(|(path, text)| (path.as_str(), identifiers(text)))
        .collect();

    let dump = std::fs::read_to_string(root.join("docs/api-surface.txt")).unwrap();
    let items: BTreeSet<(&str, &str)> = dump
        .lines()
        .filter_map(|line| {
            let (file, decl) = line
                .split_once(": ")
                .unwrap_or_else(|| panic!("malformed dump line `{line}`"));
            item_name(decl).map(|name| (file, name))
        })
        .collect();
    assert!(items.len() >= 500, "only {} items in the dump", items.len());
    let unused: BTreeSet<(&str, &str)> = items
        .iter()
        .filter(|&&(file, name)| {
            !idents
                .iter()
                .any(|(other, words)| *other != file && words.contains(name))
        })
        .copied()
        .collect();

    let intended_text = std::fs::read_to_string(root.join("docs/api-intended.txt")).unwrap();
    let mut intended = BTreeSet::new();
    for line in intended_text.lines() {
        if line.trim().is_empty() || line.starts_with('#') {
            continue;
        }
        let entry = line.split_once(": ").and_then(|(file, rest)| {
            let (name, reason) = rest.split_once(" — ")?;
            (!reason.trim().is_empty()).then_some((file, name.trim()))
        });
        let entry = entry.unwrap_or_else(|| {
            panic!("api-intended.txt: `{line}` is not `<file>: <name> — <reason>`")
        });
        assert!(
            intended.insert(entry),
            "api-intended.txt lists {entry:?} twice"
        );
    }

    let unlisted: Vec<String> = unused
        .difference(&intended)
        .map(|(file, name)| format!("{file}: {name}"))
        .collect();
    let stale: Vec<String> = intended
        .difference(&unused)
        .map(|(file, name)| format!("{file}: {name}"))
        .collect();
    assert!(
        unlisted.is_empty(),
        "public items no other file uses: delete them, narrow them, or list them with a \
         reason in docs/api-intended.txt:\n{}",
        unlisted.join("\n")
    );
    assert!(
        stale.is_empty(),
        "docs/api-intended.txt entries that name no unused item of docs/api-surface.txt:\n{}",
        stale.join("\n")
    );
}

#[test]
fn test_code_starts_at_one_cut_per_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = sources(root, &ONE_CUT_TREES);
    assert!(files.len() >= 50, "only {} source files found", files.len());
    let offenders: Vec<&str> = files
        .iter()
        .filter(|(_, text)| text.lines().filter(|line| is_test_cut(line)).count() > 1)
        .map(|(path, _)| path.as_str())
        .collect();
    assert!(
        offenders.is_empty(),
        "files with more than one `{TEST_CUT}` line (test-only helpers go into the \
         file's `mod tests`):\n{}",
        offenders.join("\n")
    );
}
