//! The trace-fingerprint memo: one small `.gzf` file per store directory
//! that maps (workload, records, generator version) to the fingerprint of
//! the synthetic trace those three determine.
//!
//! Store keys are trace fingerprints, and a synthetic trace's fingerprint
//! is a pure function of its workload name, record count and generator
//! version. Remembering it lets a warm sweep look up every job without
//! synthesizing a single trace just to hash it. The memo is **derived
//! data**: a missing file costs a re-synthesis, and a damaged one is
//! rejected loudly ([`load_memo`] logs it at warn and counts it in
//! `gzr_fingerprint_memos_rejected_total`) and then rebuilt. Deleting the
//! file is the reset.
//!
//! # On-disk layout (version 1, little-endian)
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `GZF1` |
//! | 4      | 2    | memo format version (`1`) |
//! | 6      | 2    | reserved, zero |
//! | 8      | 8    | `entry_count` |
//! | 16     | 8    | `payload_bytes` — bytes of entries that follow the header |
//! | 24     | 8    | checksum: FNV-1a over bytes 0..24 and the payload |
//! | 32     | …    | entries, sorted by key |
//!
//! Each entry is `name_len` u16, the workload name (UTF-8, `name_len`
//! bytes), `records` u64, `generator` u32 and `fingerprint` u64. The file
//! size must equal `32 + payload_bytes`, and the entries must consume the
//! payload exactly; anything else rejects the file.
//!
//! Writes are crash-safe like segment flushes: temp file → fsync →
//! rename → directory fsync, every step armable through [`crate::fault`]
//! (`gzf.memo.create|write|fsync|rename|dirsync`). Concurrent writers
//! each read the current file, merge their entries in and rename over
//! it; the last rename wins, so a lost update only costs a recompute,
//! never a wrong entry.

use std::collections::BTreeMap;
use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use sim_core::params::Fnv1a;

use crate::fault::{check_io, FaultyWriter};

/// File name of the memo inside a store directory.
pub const MEMO_FILE_NAME: &str = "trace-fingerprints.gzf";
/// Magic bytes opening a memo file.
pub const GZF_MAGIC: [u8; 4] = *b"GZF1";
/// Memo format version written by this crate.
pub const GZF_VERSION: u16 = 1;
/// Fixed header size in bytes.
pub const GZF_HEADER_BYTES: usize = 32;

/// What determines a synthetic trace: its workload, its record count and
/// the generator version that synthesized it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemoKey {
    /// Workload name.
    pub workload: String,
    /// Records requested from the generator.
    pub records: u64,
    /// Generator version (`workloads::GENERATOR_VERSION`).
    pub generator: u32,
}

/// Memoized trace fingerprints, by key.
pub type Memo = BTreeMap<MemoKey, u64>;

/// Per-process counter folded into temp-file names, so concurrent
/// writers in one process never share a temp file.
static TMP_NONCE: AtomicU64 = AtomicU64::new(0);

/// Path of the memo file in store directory `dir`.
pub fn memo_path(dir: &Path) -> PathBuf {
    dir.join(MEMO_FILE_NAME)
}

/// Serializes `memo` in the version-1 layout.
pub fn encode(memo: &Memo) -> Vec<u8> {
    let mut payload = Vec::new();
    for (key, fingerprint) in memo {
        let name = key.workload.as_bytes();
        let len = u16::try_from(name.len()).expect("workload names fit in u16");
        payload.extend_from_slice(&len.to_le_bytes());
        payload.extend_from_slice(name);
        payload.extend_from_slice(&key.records.to_le_bytes());
        payload.extend_from_slice(&key.generator.to_le_bytes());
        payload.extend_from_slice(&fingerprint.to_le_bytes());
    }
    let mut out = vec![0u8; GZF_HEADER_BYTES];
    out[0..4].copy_from_slice(&GZF_MAGIC);
    out[4..6].copy_from_slice(&GZF_VERSION.to_le_bytes());
    out[8..16].copy_from_slice(&(memo.len() as u64).to_le_bytes());
    out[16..24].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    let sum = checksum(&out[..24], &payload);
    out[24..32].copy_from_slice(&sum.to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

fn checksum(header: &[u8], payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for &b in header.iter().chain(payload) {
        h.mix(u64::from(b));
    }
    h.finish()
}

fn invalid(message: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

/// Parses a memo file, rejecting (with an `InvalidData` error naming the
/// problem) a bad magic, an unknown version, a size that disagrees with
/// the header, a checksum mismatch, or entries that do not consume the
/// payload exactly.
pub fn decode(bytes: &[u8]) -> io::Result<Memo> {
    if bytes.len() < GZF_HEADER_BYTES {
        return Err(invalid(format!(
            "memo truncated: {} bytes, header needs {GZF_HEADER_BYTES}",
            bytes.len()
        )));
    }
    if bytes[0..4] != GZF_MAGIC {
        return Err(invalid("memo has a bad magic".to_string()));
    }
    let version = u16::from_le_bytes([bytes[4], bytes[5]]);
    if version != GZF_VERSION {
        return Err(invalid(format!(
            "memo version {version} (this build reads {GZF_VERSION})"
        )));
    }
    let count = le_u64(&bytes[8..16]);
    let payload_bytes = le_u64(&bytes[16..24]);
    let payload = &bytes[GZF_HEADER_BYTES..];
    if payload.len() as u64 != payload_bytes {
        return Err(invalid(format!(
            "memo payload is {} bytes, header says {payload_bytes}",
            payload.len()
        )));
    }
    if checksum(&bytes[..24], payload) != le_u64(&bytes[24..32]) {
        return Err(invalid("memo checksum mismatch".to_string()));
    }
    let mut memo = Memo::new();
    let mut rest = payload;
    for _ in 0..count {
        if rest.len() < 2 {
            return Err(invalid("memo entry truncated".to_string()));
        }
        let len = usize::from(u16::from_le_bytes([rest[0], rest[1]]));
        if rest.len() < 2 + len + 20 {
            return Err(invalid("memo entry truncated".to_string()));
        }
        let workload = std::str::from_utf8(&rest[2..2 + len])
            .map_err(|_| invalid("memo workload name is not UTF-8".to_string()))?
            .to_string();
        let fields = &rest[2 + len..2 + len + 20];
        let key = MemoKey {
            workload,
            records: le_u64(&fields[0..8]),
            generator: u32::from_le_bytes(fields[8..12].try_into().expect("4-byte slice")),
        };
        memo.insert(key, le_u64(&fields[12..20]));
        rest = &rest[2 + len + 20..];
    }
    if !rest.is_empty() {
        return Err(invalid(format!(
            "memo has {} bytes after its {count} entries",
            rest.len()
        )));
    }
    Ok(memo)
}

/// Reads the memo of store directory `dir`: empty when there is no file,
/// an error when the file cannot be read or is rejected by [`decode`].
pub fn read_memo(dir: &Path) -> io::Result<Memo> {
    match fs::read(memo_path(dir)) {
        Ok(bytes) => decode(&bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Memo::new()),
        Err(e) => Err(e),
    }
}

/// [`read_memo`] for callers that only want whatever is usable: a
/// rejected file is logged at warn, counted in
/// `gzr_fingerprint_memos_rejected_total`, and read as empty (the next
/// [`merge_memo`] replaces it).
pub fn load_memo(dir: &Path) -> Memo {
    read_memo(dir).unwrap_or_else(|err| {
        crate::obs::metrics().memos_rejected.inc();
        gaze_obs::log::warn(
            "gzr",
            "rejecting fingerprint memo; traces will be re-synthesized",
            &[("path", &memo_path(dir).display()), ("error", &err)],
        );
        Memo::new()
    })
}

/// Merges `entries` into the memo file of `dir`: reads the current file
/// (an unreadable or rejected one counts as empty), lets `entries` win on
/// equal keys, and crash-safely replaces the file. Writes nothing when
/// the file already holds every entry. Returns the failure of any write
/// step; callers treat it as non-fatal, since the memo is derived data.
pub fn merge_memo(dir: &Path, entries: &Memo) -> io::Result<()> {
    let current = read_memo(dir).unwrap_or_default();
    let mut merged = current.clone();
    merged.extend(entries.iter().map(|(k, v)| (k.clone(), *v)));
    if merged == current {
        return Ok(());
    }
    let nonce = TMP_NONCE.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!(
        "{}{}-{nonce:x}-{MEMO_FILE_NAME}",
        crate::store::TMP_PREFIX,
        std::process::id()
    ));
    let result = write_memo_at(&tmp, &encode(&merged)).and_then(|()| {
        check_io("gzf.memo.rename")?;
        fs::rename(&tmp, memo_path(dir))?;
        check_io("gzf.memo.dirsync")?;
        if let Ok(handle) = File::open(dir) {
            // Persist the rename itself; best-effort on filesystems that
            // refuse to fsync directories.
            let _ = handle.sync_all();
        }
        Ok(())
    });
    if result.is_err() {
        // Best-effort: a leftover temp file is ignored by every reader.
        let _ = fs::remove_file(&tmp);
    }
    result
}

fn write_memo_at(tmp: &Path, bytes: &[u8]) -> io::Result<()> {
    check_io("gzf.memo.create")?;
    let file = File::create(tmp)?;
    let mut out = BufWriter::new(FaultyWriter::new(file, "gzf.memo.write"));
    out.write_all(bytes)?;
    out.flush()?;
    let file = out.into_inner().map_err(io::Error::from)?.into_inner();
    check_io("gzf.memo.fsync")?;
    file.sync_all()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(workload: &str, records: u64) -> MemoKey {
        MemoKey {
            workload: workload.to_string(),
            records,
            generator: 1,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut memo = Memo::new();
        memo.insert(key("bwaves_s", 14_000), 0xfeed);
        memo.insert(key("PageRank.D", 14_000), 0xbeef);
        memo.insert(key("bwaves_s", 3_000), 7);
        assert_eq!(decode(&encode(&memo)).expect("decode"), memo);
        assert_eq!(decode(&encode(&Memo::new())).expect("empty"), Memo::new());
    }

    #[test]
    fn merge_lets_new_entries_win_and_skips_no_op_writes() {
        let dir = std::env::temp_dir().join(format!("gzf-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("dir");
        assert!(read_memo(&dir).expect("absent").is_empty());
        let mut first = Memo::new();
        first.insert(key("a", 1), 1);
        first.insert(key("b", 1), 2);
        merge_memo(&dir, &first).expect("merge");
        let mut second = Memo::new();
        second.insert(key("b", 1), 3);
        merge_memo(&dir, &second).expect("merge");
        let read = read_memo(&dir).expect("read");
        assert_eq!(read[&key("a", 1)], 1);
        assert_eq!(read[&key("b", 1)], 3, "the newer entry wins");
        let before = fs::metadata(memo_path(&dir))
            .and_then(|m| m.modified())
            .ok();
        merge_memo(&dir, &second).expect("no-op merge");
        let after = fs::metadata(memo_path(&dir))
            .and_then(|m| m.modified())
            .ok();
        assert_eq!(before, after, "an already-held entry writes nothing");
        fs::remove_dir_all(&dir).ok();
    }
}
