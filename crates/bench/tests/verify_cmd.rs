//! End-to-end pin of `repro --scale tiny verify`: the subcommand exits 0 and
//! its stdout — every static report over the suite plus the static-vs-dynamic
//! cross-validations — is byte-identical to the blessed run. An FNV-1a of
//! stdout sits in `golden/verify_tiny_fnv.txt`, blessed
//! (`TYR_BLESS=1 cargo test -p tyr-bench --test verify_cmd`) on the commit
//! *before* a change to `tyr-verify` and passing unmodified after it.

use std::path::PathBuf;
use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| (h ^ *b as u64).wrapping_mul(0x0100_0000_01b3))
}

#[test]
fn tiny_verify_stdout_matches_its_blessed_digest() {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["--scale", "tiny", "verify"])
        .output()
        .expect("repro runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "repro verify failed:\n{stdout}");
    let digest =
        format!("verify tiny: bytes={} fnv={:016x}\n", out.stdout.len(), fnv1a(&out.stdout));

    let golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/verify_tiny_fnv.txt");
    if std::env::var_os("TYR_BLESS").is_some() {
        std::fs::write(&golden, &digest).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); regenerate with TYR_BLESS=1", golden.display())
    });
    assert_eq!(digest, expected, "`repro --scale tiny verify` stdout drifted from its digest");
}
