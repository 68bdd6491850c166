//! The `gnnmls` binary's failure contract: a misused verb exits 1,
//! prints nothing on stdout, and prints exactly its message on stderr,
//! followed by the usage text where the verb appends it. No case needs a
//! daemon: client verbs point at a closed port, and a request that
//! cannot be sent must fail before the client connects. A bad serve knob
//! must fail before `serve --cluster` spawns a shard. A stdout that
//! cannot be written fails the same way: exit 1, one stderr line, no
//! panic.

use std::process::Output;

/// Runs `gnnmls` from a fresh, empty directory; `{tmp}` in an argument
/// names that directory.
fn gnnmls(case: usize, args: &[&str]) -> Output {
    let dir = std::env::temp_dir().join(format!("gnnmls_cli_errors_{}_{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let tmp = dir.to_str().expect("utf-8 temp path");
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gnnmls"))
        .current_dir(&dir)
        .args(args.iter().map(|a| a.replace("{tmp}", tmp)))
        .output()
        .expect("gnnmls runs");
    let _ = std::fs::remove_dir_all(&dir);
    out
}

/// Asserts exit 1, an empty stdout, and `stderr` exactly.
fn assert_fails(out: &Output, args: &[&str], stderr: &str) {
    let got = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{args:?}: {got}");
    assert!(out.stdout.is_empty(), "{args:?} wrote to stdout");
    assert_eq!(got, stderr, "{args:?}");
}

#[test]
fn misuse_exits_1_with_exactly_its_message() {
    let bare = gnnmls(0, &[]);
    let usage = String::from_utf8_lossy(&bare.stderr).into_owned();
    assert!(usage.starts_with("usage:\n  gnnmls flow "), "{usage}");
    assert!(
        usage.ends_with('\n') && !usage.ends_with("\n\n"),
        "{usage:?}"
    );
    assert_fails(&bare, &[], &usage);
    assert_fails(&gnnmls(1, &["client"]), &["client"], &usage);

    // (arguments, message, whether the usage text follows the message)
    let cases: &[(&[&str], &str, bool)] = &[
        (
            &["serve", "--queue", "0"],
            "--queue must be a positive integer",
            false,
        ),
        (
            &["serve", "--shards", "2"],
            "--shards only applies with --cluster",
            false,
        ),
        (
            &["serve", "--cluster", "--shards", "1", "--queue", "0"],
            "--queue must be a positive integer",
            false,
        ),
        (
            &["serve", "--cluster", "--shards", "1", "--workers", "x"],
            "--workers must be a positive integer",
            false,
        ),
        (
            &["client", "nope", "--addr", "127.0.0.1:9"],
            "unknown client verb `nope`",
            true,
        ),
        (
            &["client", "whatif", "--addr", "127.0.0.1:9"],
            "whatif requires --net <id>",
            false,
        ),
        (
            &[
                "client",
                "whatif",
                "--retries",
                "0",
                "--addr",
                "127.0.0.1:9",
            ],
            "--retries must be a positive attempt count",
            false,
        ),
        (
            &["bench", "nope"],
            "unknown bench verb `nope` (suite|diff|cluster|zoo)",
            true,
        ),
        (
            &["bench", "zoo", "--target-accuracy", "2"],
            "--target-accuracy must be in (0, 1]",
            false,
        ),
        (
            &["bench", "cluster", "--shards", "0"],
            "--shards must be a positive integer",
            false,
        ),
        (
            &["model"],
            "model wants a verb (train|list|inspect|verify)",
            true,
        ),
        (
            &["model", "inspect", "--dir", "{tmp}/zoo"],
            "model inspect requires --family <f>",
            false,
        ),
        (&["flow", "--bogus"], "unknown option --bogus", true),
        (&["fsck"], "usage: gnnmls fsck <dir> [--json <path>]", false),
        (
            &["fsck", "missing"],
            "gnnmls fsck: missing: no such directory",
            false,
        ),
    ];
    for (case, &(args, message, with_usage)) in cases.iter().enumerate() {
        let stderr = if with_usage {
            format!("{message}\n{usage}\n")
        } else {
            format!("{message}\n")
        };
        assert_fails(&gnnmls(case + 2, args), args, &stderr);
    }
    let args = ["fsck", "{tmp}", "--bogus"];
    assert_fails(
        &gnnmls(cases.len() + 2, &args),
        &args,
        "unknown option --bogus\nusage: gnnmls fsck <dir> [--json <path>]\n",
    );
}

#[test]
fn a_closed_stdout_exits_1_without_a_panic() {
    let (reader, writer) = std::io::pipe().expect("pipe");
    drop(reader);
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_gnnmls"))
        .arg("designs")
        .stdout(writer)
        .output()
        .expect("gnnmls runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(stderr.lines().count(), 1, "{stderr}");
}
