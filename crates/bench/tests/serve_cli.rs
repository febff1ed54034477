//! `deeprest_serve --checkpoint DIR` must leave a loadable checkpoint in
//! both modes: a single pipeline's `Checkpoint`, and — with `--tenants N` —
//! the registry's `MultiTenantCheckpoint`.

use std::path::Path;
use std::process::Command;

use deeprest_serve::{Checkpoint, CheckpointStore, MultiTenantCheckpoint};

fn serve_with_checkpoint(dir: &Path, extra: &[&str]) {
    let _ = std::fs::remove_dir_all(dir);
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../core/tests/fixtures/mini_jaeger.json"
    );
    let output = Command::new(env!("CARGO_BIN_EXE_deeprest_serve"))
        .args(["--replay", fixture, "--spread", "0.4", "--window-secs", "1"])
        .args(extra)
        .arg("--checkpoint")
        .arg(dir)
        .output()
        .expect("run deeprest_serve");
    assert!(output.status.success(), "deeprest_serve failed: {output:?}");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let latest = CheckpointStore::new(dir).latest_path();
    assert!(
        stdout.contains(&format!("checkpoint written to {}", latest.display())),
        "the checkpoint path must be printed:\n{stdout}"
    );
}

#[test]
fn checkpoint_flag_persists_single_and_multi_tenant_state() {
    let root = std::env::temp_dir().join(format!("deeprest-serve-cli-{}", std::process::id()));

    let single = root.join("single");
    serve_with_checkpoint(&single, &[]);
    CheckpointStore::new(&single)
        .load_latest::<Checkpoint>()
        .expect("single-tenant checkpoint loads");

    let multi = root.join("multi");
    serve_with_checkpoint(&multi, &["--tenants", "3"]);
    let loaded = CheckpointStore::new(&multi)
        .load_latest::<MultiTenantCheckpoint>()
        .expect("multi-tenant checkpoint loads");
    assert_eq!(loaded.tenants.len(), 3);

    let _ = std::fs::remove_dir_all(&root);
}
