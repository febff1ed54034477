//! The command's contract at its edge: exit code and the last stdout line.

use std::process::Command;

use serde_json::Value;

fn run(args: &[&str]) -> (bool, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let last = stdout.lines().last().expect("a result line");
    let result = serde_json::from_str(last).expect("last line is the JSON result");
    (out.status.success(), result)
}

fn field(v: &Value, key: &str) -> Value {
    v.as_object()
        .and_then(|o| o.get(key))
        .cloned()
        .unwrap_or(Value::Null)
}

#[test]
fn a_clean_smoke_run_passes_with_no_failed_op() {
    let (ok, result) = run(&["--workload", "tenants_flood", "--smoke"]);
    assert!(ok, "clean run exits 0");
    assert_eq!(field(&result, "correct").as_bool(), Some(true));
    assert_eq!(field(&result, "failed").as_u64(), Some(0));
    assert!(field(&result, "attempted").as_u64().unwrap() >= 1);
}

/// A failing correctness check is counted and fails the command: one bit of
/// one estimate is flipped before the outputs are checked, and the run must
/// exit non-zero with every op failed (`failed_share` = 1).
#[test]
fn a_corrupted_output_fails_the_command_and_every_op() {
    let (ok, result) = run(&["--workload", "tenants_flood", "--smoke", "--corrupt-output"]);
    assert!(!ok, "corrupted run exits non-zero");
    assert_eq!(field(&result, "correct").as_bool(), Some(false));
    let attempted = field(&result, "attempted").as_u64().unwrap();
    assert!(attempted >= 1);
    assert_eq!(field(&result, "failed").as_u64(), Some(attempted));
}

#[test]
fn an_unknown_workload_is_refused_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "nope"])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
