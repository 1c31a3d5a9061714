//! Exit-code contract of `gced analyze`, bench-check style: 0 on a
//! clean tree, 1 on findings, 2 on usage errors — CI keys off these.
//! Also `gced <cmd> --help`: that subcommand's usage, exit 0.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::Command;

fn gced() -> Command {
    Command::new(env!("CARGO_BIN_EXE_gced"))
}

/// Build a throwaway source tree under the cargo test tmpdir.
fn fixture_tree(name: &str, files: &[(&str, &str)]) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = fs::remove_dir_all(&root);
    for (rel, content) in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().expect("file paths have parents")).unwrap();
        fs::write(path, content).unwrap();
    }
    root
}

#[test]
fn clean_tree_exits_zero() {
    let root = fixture_tree(
        "analyze-clean",
        &[(
            "src/lib.rs",
            "pub fn add(a: u64, b: u64) -> u64 { a + b }\n",
        )],
    );
    let out = gced()
        .args(["analyze", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "stderr: {}", text(&out.stderr));
    let stdout = text(&out.stdout);
    assert!(stdout.contains("clean: 0 findings"), "stdout: {stdout}");
}

#[test]
fn findings_exit_one_and_json_reports_them() {
    let root = fixture_tree(
        "analyze-dirty",
        &[(
            // In DET002 scope: raw accumulation outside the kernels.
            "crates/nn/src/bad.rs",
            "pub fn acc(xs: &[f32]) -> f32 {\n    let mut a = 0.0;\n    for x in xs { a += x; }\n    a\n}\n",
        )],
    );
    let out = gced()
        .args(["analyze", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    let stdout = text(&out.stdout);
    assert!(
        stdout.contains("crates/nn/src/bad.rs:3: [DET002]"),
        "stdout: {stdout}"
    );

    let json_out = gced()
        .args(["analyze", "--json", "--root"])
        .arg(&root)
        .output()
        .unwrap();
    assert_eq!(json_out.status.code(), Some(1));
    let json = text(&json_out.stdout);
    assert!(json.starts_with("{\"clean\":false,"), "json: {json}");
    assert!(json.contains("\"lint\":\"DET002\""), "json: {json}");
    assert!(json.contains("\"line\":3"), "json: {json}");
}

#[test]
fn out_flag_writes_the_report_file() {
    let root = fixture_tree(
        "analyze-out",
        &[("src/lib.rs", "pub fn id(x: u8) -> u8 { x }\n")],
    );
    let report = root.join("report.json");
    let out = gced()
        .args(["analyze", "--json", "--root"])
        .arg(&root)
        .arg("--out")
        .arg(&report)
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let body = fs::read_to_string(&report).unwrap();
    assert!(body.starts_with("{\"clean\":true,"), "report: {body}");
}

#[test]
fn fix_is_a_usage_error_with_guidance() {
    let out = gced().args(["analyze", "--fix"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = text(&out.stderr);
    assert!(err.contains("no --fix"), "stderr: {err}");
    assert!(err.contains("gced-allow"), "stderr: {err}");
}

#[test]
fn bad_usage_exits_two() {
    // --root without a value.
    let out = gced().args(["analyze", "--root"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    // Nonexistent root is an error, not "clean".
    let out = gced()
        .args(["analyze", "--root", "/nonexistent/gced-analyze-root"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn subcommand_help_prints_its_usage_and_exits_zero() {
    for (args, expect) in [
        (&["analyze", "--help"][..], "gced analyze [--root DIR]"),
        (&["analyze", "-h"][..], "ANALYZE:"),
        (&["distill", "--help"][..], "gced distill --question Q"),
        (&["serve", "--addr", "127.0.0.1:0", "--help"][..], "SERVE:"),
    ] {
        let out = gced().args(args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(0),
            "{args:?}: {}",
            text(&out.stderr)
        );
        let stdout = text(&out.stdout);
        assert!(stdout.starts_with("USAGE:\n"), "{args:?}: {stdout}");
        assert!(stdout.contains(expect), "{args:?}: {stdout}");
        // Only that subcommand's usage, not the whole reference.
        assert!(!stdout.contains("gced merge"), "{args:?}: {stdout}");
    }
    // An unknown subcommand stays a usage error.
    let out = gced().args(["nosuch", "--help"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}
