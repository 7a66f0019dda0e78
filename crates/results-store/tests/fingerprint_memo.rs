//! Rejection proofs for the trace-fingerprint memo file (`.gzf`).
//!
//! The memo is derived data, so a damaged file must never be half-read:
//! truncation at every byte offset, a flipped checksum byte and an
//! unknown version are each rejected as `InvalidData`. The lenient
//! loader then reads the file as empty (and counts it), and the next
//! merge writes a whole, valid memo again.

use std::io::ErrorKind;
use std::path::PathBuf;

use results_store::memo::{
    decode, encode, load_memo, memo_path, merge_memo, read_memo, Memo, MemoKey, GZF_HEADER_BYTES,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("gzf-memo-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create dir");
    dir
}

fn sample() -> Memo {
    ["bwaves_s", "mcf_s", "PageRank.D", "cloud-streaming"]
        .iter()
        .enumerate()
        .map(|(i, w)| {
            let key = MemoKey {
                workload: w.to_string(),
                records: 14_000 + i as u64,
                generator: 1,
            };
            (key, 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(i as u64 + 1))
        })
        .collect()
}

fn rejected(bytes: &[u8], what: &str) {
    match decode(bytes) {
        Err(e) => assert_eq!(e.kind(), ErrorKind::InvalidData, "{what}: {e}"),
        Ok(memo) => panic!("{what}: accepted a damaged memo ({} entries)", memo.len()),
    }
}

#[test]
fn truncation_at_every_byte_offset_is_rejected() {
    let bytes = encode(&sample());
    assert!(bytes.len() > GZF_HEADER_BYTES);
    for len in 0..bytes.len() {
        rejected(&bytes[..len], &format!("truncated to {len} bytes"));
    }
    assert_eq!(decode(&bytes).expect("whole file"), sample());
}

#[test]
fn a_bad_checksum_or_a_flipped_payload_byte_is_rejected() {
    let bytes = encode(&sample());
    for offset in [24, 31, GZF_HEADER_BYTES, bytes.len() - 1] {
        let mut damaged = bytes.clone();
        damaged[offset] ^= 0x01;
        rejected(&damaged, &format!("byte {offset} flipped"));
    }
}

#[test]
fn an_unknown_version_or_magic_is_rejected() {
    let bytes = encode(&sample());
    let mut future = bytes.clone();
    future[4..6].copy_from_slice(&2u16.to_le_bytes());
    rejected(&future, "version 2");
    let mut foreign = bytes.clone();
    foreign[0..4].copy_from_slice(b"GZR1");
    rejected(&foreign, "foreign magic");
}

#[test]
fn a_rejected_file_loads_empty_and_the_next_merge_rewrites_it() {
    let dir = temp_dir("rewrite");
    let whole = encode(&sample());
    std::fs::write(memo_path(&dir), &whole[..whole.len() - 3]).expect("write torn memo");
    assert_eq!(
        read_memo(&dir).expect_err("torn").kind(),
        ErrorKind::InvalidData
    );
    assert!(load_memo(&dir).is_empty(), "a rejected memo reads as empty");
    merge_memo(&dir, &sample()).expect("recompute and rewrite");
    assert_eq!(read_memo(&dir).expect("valid again"), sample());
    assert_eq!(std::fs::read(memo_path(&dir)).expect("bytes"), whole);
    std::fs::remove_dir_all(&dir).ok();
}
