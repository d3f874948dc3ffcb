//! The `dopia` binary, driven as a user would.

use std::path::Path;
use std::process::Command;

const KERNEL_2D: &str = "__kernel void fill2d(__global float* a, int w, int h) {
    int x = get_global_id(0);
    int y = get_global_id(1);
    if (x < w && y < h) { a[y * w + x] = 1.0f; }
}";

/// `--show-malleable` on a 2-D launch must print the Fig. 6 rewrite (the
/// worklist index split by `/` and `%` over `get_local_size(1)`), not the
/// 1-D one.
#[test]
fn show_malleable_prints_the_rewrite_for_the_launch_dimensionality() {
    let kernel = Path::new(env!("CARGO_TARGET_TMPDIR")).join("fill2d.cl");
    std::fs::write(&kernel, KERNEL_2D).unwrap();
    let model = Path::new(env!("CARGO_MANIFEST_DIR")).join("results/models/kaveri_dt.model");
    let out = Command::new(env!("CARGO_BIN_EXE_dopia"))
        .arg("run")
        .arg(&kernel)
        .arg("--model")
        .arg(&model)
        .args(["--global", "64,64", "--local", "8,8", "--n", "4096"])
        .args(["--arg", "w=64", "--arg", "h=64", "--show-malleable"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{}\n{}", stdout, String::from_utf8_lossy(&out.stderr));
    assert!(stdout.contains("--- malleable GPU kernel (2-D) ---"), "{}", stdout);
    assert!(stdout.contains("dynamic_work < get_local_size(0) * get_local_size(1)"), "{}", stdout);
    assert!(stdout.contains("dynamic_work / get_local_size(1)"), "{}", stdout);
    assert!(stdout.contains("dynamic_work % get_local_size(1)"), "{}", stdout);
}
