//! Fuzz-style robustness for the WAL scanner: arbitrary segment bodies
//! never panic, and arbitrary segment *files* recover cleanly through the
//! full directory scanner.

use dc_common::TempDir;
use dc_durable::{segment_file_name, FrameCursor, StdFs, WalReader, SEGMENT_HEADER_LEN};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary frame-stream bytes after a segment header: the cursor
    /// never panics and always reports a clean-prefix length within the
    /// input.
    #[test]
    fn raw_scan_never_panics(body in prop::collection::vec(any::<u8>(), 0..2048)) {
        let mut bytes = vec![0u8; SEGMENT_HEADER_LEN];
        bytes.extend_from_slice(&body);
        let frames = FrameCursor::segment(&bytes, 1).exhaust();
        prop_assert!(frames.clean_len() <= bytes.len());
    }

    /// Arbitrary bytes dressed up as segment 1: full directory recovery
    /// never panics, never errors, and repairs the directory so a second
    /// scan is clean.
    #[test]
    fn directory_recovery_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..2048)) {
        let dir = TempDir::new("wal-fuzz");
        std::fs::write(dir.join(segment_file_name(1)), &bytes).unwrap();
        let scan = WalReader::recover(&StdFs, &dir).unwrap();
        prop_assert!(scan.truncated_bytes <= bytes.len() as u64);
        // Post-repair scan: nothing further to discard, same entries.
        let rescan = WalReader::recover(&StdFs, &dir).unwrap();
        prop_assert_eq!(rescan.truncated_bytes, 0);
        prop_assert_eq!(rescan.replayed, scan.replayed);
    }
}
