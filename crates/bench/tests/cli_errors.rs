//! Bad CLI input ends the harness binaries with one `error:` line and exit
//! code 2, before any run starts or any result file is written.

use std::process::Command;

fn run(bin: &str, args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(bin).args(args).output().expect("spawn binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn non_positive_or_non_finite_scale_exits_2() {
    for bad in ["-1", "0", "NaN", "inf"] {
        let (code, err) = run(env!("CARGO_BIN_EXE_fig13"), &["--scale", bad]);
        assert_eq!(code, Some(2), "--scale {bad}: {err}");
        assert!(err.starts_with("error: --scale"), "--scale {bad}: {err}");
        assert!(!err.contains("panicked"), "--scale {bad}: {err}");
    }
}

#[test]
fn trace_dir_under_a_regular_file_exits_2() {
    let root = std::env::temp_dir().join(format!("tta-cli-errors-{}", std::process::id()));
    std::fs::create_dir_all(&root).unwrap();
    let file = root.join("plain-file");
    std::fs::write(&file, b"x").unwrap();
    let dir = file.join("traces");
    let (code, err) = run(
        env!("CARGO_BIN_EXE_fleet"),
        &["--quick", "--trace", dir.to_str().unwrap()],
    );
    std::fs::remove_dir_all(&root).unwrap();
    assert_eq!(code, Some(2), "{err}");
    assert_eq!(err.lines().count(), 1, "one line: {err}");
    assert!(err.starts_with("error: --trace directory"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}
