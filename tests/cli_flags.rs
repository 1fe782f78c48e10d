//! Flag handling of the `ndq` binary, driven as a subprocess.

use std::process::{Command, Output, Stdio};

fn ndq(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_ndq"))
        .args(args)
        .stdin(Stdio::null())
        .output()
        .expect("run ndq")
}

/// `--verify` and `--prewarm` tune `--load`. Given without it they are a
/// usage error (exit 2) in query, update and serve modes instead of being
/// silently ignored; the removed mapped-load flag is refused too.
#[test]
fn load_tuning_flags_require_load() {
    let dir = std::env::temp_dir().join(format!("ndq-cli-flags-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let idx = dir.join("idx.bin");
    let idx = idx.to_str().unwrap();
    let q = "dist(x,y) > 2 && Blue(y)";
    let graph = ["--graph", "grid:6x6", "--color", "Blue:0.3:7"];

    let save = ndq(&[&graph[..], &["--query", q, "--save", idx, "--count"]].concat());
    assert!(save.status.success(), "save failed: {save:?}");

    let rejected: [&[&str]; 6] = [
        &[
            "--graph", "grid:6x6", "--query", q, "--verify", "lazy", "--count",
        ],
        &["--graph", "grid:6x6", "--query", q, "--prewarm", "--count"],
        &[
            "--graph", "grid:6x6", "--query", q, "--verify", "full", "--count",
        ],
        &[
            "update",
            "--graph",
            "grid:6x6",
            "--query",
            q,
            "--verify",
            "lazy",
            "--mutate",
            "add-edge 0 7",
        ],
        &["serve", "--graph", "grid:6x6", "--query", q, "--prewarm"],
        &["--load-mmap", idx, "--count"],
    ];
    for args in rejected {
        let out = ndq(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} was not refused");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--load"), "{args:?}: {stderr}");
    }

    let mapped = ndq(&["--load", idx, "--verify", "lazy", "--prewarm", "--count"]);
    assert!(mapped.status.success(), "mapped load failed: {mapped:?}");
    let stderr = String::from_utf8_lossy(&mapped.stderr);
    assert!(stderr.contains("lazy verify"), "{stderr}");
    assert!(
        stderr.contains("deferred CRC verification passed"),
        "{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}
