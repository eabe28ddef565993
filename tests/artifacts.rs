//! Every committed JSON artifact — run journals, timing sidecars and the
//! `tta-cost` report under `results/`, the `BENCH_*.json` perf logs, and
//! the golden Chrome traces — parses with `trace::json`, the workspace's
//! one JSON codec. CI reruns this after regenerating `results/`, so
//! freshly written journals and reports are held to the same parser. Run
//! journals must also carry the journal schema the code writes today.

use std::path::{Path, PathBuf};

/// `*.json` files directly under `dir` whose names start with `prefix`,
/// sorted by path.
fn json_files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot list {}: {e}", dir.display()))
        .map(|entry| entry.expect("directory entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with(prefix) && name.ends_with(".json")
        })
        .collect();
    files.sort();
    files
}

#[test]
fn every_committed_json_artifact_parses() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let groups = [
        (root.join("results"), ""),
        (root.to_path_buf(), "BENCH_"),
        (root.join("crates/trace/tests/golden"), ""),
    ];
    for (dir, prefix) in &groups {
        let files = json_files(dir, prefix);
        assert!(
            !files.is_empty(),
            "no {prefix}*.json under {}",
            dir.display()
        );
        for path in files {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
            if let Err(e) = trace::json::parse(&text) {
                panic!("{}: {e}", path.display());
            }
        }
    }
}

#[test]
fn committed_run_journals_carry_the_current_schema() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let journals: Vec<PathBuf> = json_files(&root.join("results"), "")
        .into_iter()
        .filter(|p| p.to_string_lossy().ends_with(".journal.json"))
        .collect();
    assert!(!journals.is_empty(), "no results/*.journal.json");
    for path in journals {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let doc = trace::json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if doc
            .get("runs")
            .and_then(trace::json::Value::as_array)
            .is_none()
        {
            continue;
        }
        assert_eq!(
            doc.get("schema").and_then(trace::json::Value::as_num),
            Some(f64::from(harness::journal::SCHEMA_VERSION)),
            "{} was written by an older journal schema; regenerate it",
            path.display()
        );
    }
}
