//! The `gcm` binary's error paths, driven as a user would drive them.

use std::process::Command;

/// A NaN in the input matrix is an error naming its cell, with exit
/// status 1 and no container written, never a panic.
#[test]
fn compress_rejects_a_nan_entry_by_cell() {
    let dir = std::env::temp_dir().join(format!("gcm-cli-nan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("nan.txt");
    let output = dir.join("out.gcms");
    std::fs::write(&input, "2 2\n1 NaN\n0 1\n").unwrap();
    let run = Command::new(env!("CARGO_BIN_EXE_gcm"))
        .arg("compress")
        .arg(&input)
        .arg(&output)
        .output()
        .unwrap();
    let stderr = String::from_utf8_lossy(&run.stderr);
    let written = output.exists();
    std::fs::remove_dir_all(&dir).unwrap();
    assert_eq!(run.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("error: NaN at row 0, column 1"), "{stderr}");
    assert!(!written, "no container for a rejected input");
}
