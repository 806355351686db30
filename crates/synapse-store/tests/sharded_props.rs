//! Property tests for the sharded store: routing totality/stability,
//! dirty-shard-only saves, compaction idempotence, and the shard-file
//! decoder under truncated, garbage and wrong-magic input.

use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use synapse_store::sharded::{decode_shard, encode_shard, SHARD_MAGIC};
use synapse_store::{shard_of, ShardedDb, StoreError, DEFAULT_DOC_LIMIT, SHARD_COUNT};

/// A scratch directory unique to this process *and* this test case, so
/// the 64 generated cases of a property never share state.
fn case_dir(tag: &str) -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let n = CASE.fetch_add(1, Ordering::Relaxed);
    let d = std::env::temp_dir().join(format!(
        "synapse-sharded-props-{tag}-{}-{n}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn val(n: i64) -> Vec<u8> {
    n.to_le_bytes().to_vec()
}

/// A well-formed shard file of `n` records with generated keys and
/// values of up to 200 bytes (so some lengths need two varint bytes).
fn shard_file(keys: &[String], lens: &[usize]) -> Vec<u8> {
    let values: Vec<Vec<u8>> = lens.iter().map(|&n| vec![0xa5; n]).collect();
    let records: Vec<(&str, &[u8])> = keys
        .iter()
        .zip(&values)
        .map(|(k, v)| (k.as_str(), v.as_slice()))
        .collect();
    encode_shard(&records)
}

fn is_corrupt<T>(r: Result<T, StoreError>) -> bool {
    matches!(r, Err(StoreError::Corrupt(_)))
}

/// Distinct shards touched by a set of keys.
fn shards_of(keys: &[String]) -> Vec<u8> {
    let mut shards: Vec<u8> = keys.iter().map(|k| shard_of(k)).collect();
    shards.sort_unstable();
    shards.dedup();
    shards
}

proptest! {
    #[test]
    fn every_key_routes_to_exactly_one_stable_shard(key in "[ -~]{0,24}") {
        // Totality: u8 return type already bounds the shard id; the
        // mapping must also be a function (same key ⇒ same shard).
        let s = shard_of(&key);
        prop_assert!((s as usize) < SHARD_COUNT);
        prop_assert_eq!(shard_of(&key), s);
        prop_assert_eq!(shard_of(&key.clone()), s);
    }

    #[test]
    fn hex_keys_route_by_their_visible_prefix(key in "[0-9a-f]{16}") {
        let expect = u8::from_str_radix(&key[..2], 16).unwrap();
        prop_assert_eq!(shard_of(&key), expect);
    }

    #[test]
    fn random_doc_sets_roundtrip_through_save_and_open(
        keys in proptest::collection::vec("[0-9a-f]{16}", 1..40),
        workers in 0usize..9,
    ) {
        let dir = case_dir("roundtrip");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "props").unwrap();
        for (i, key) in keys.iter().enumerate() {
            db.upsert(key, val(i as i64)).unwrap();
        }
        db.save().unwrap();
        let back = ShardedDb::open_with_workers(&dir, DEFAULT_DOC_LIMIT, "props", workers).unwrap();
        prop_assert_eq!(back.len(), db.len());
        for key in &keys {
            prop_assert_eq!(back.get(key, <[u8]>::to_vec), db.get(key, <[u8]>::to_vec));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn saves_touch_only_files_of_mutated_shards(
        initial in proptest::collection::vec("[0-9a-f]{16}", 1..60),
        extra in proptest::collection::vec("[0-9a-f]{16}", 1..8),
    ) {
        let dir = case_dir("dirty");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "props").unwrap();
        for key in &initial {
            db.upsert(key, val(0)).unwrap();
        }
        db.save().unwrap();
        prop_assert!(db.dirty_shards().is_empty());

        for key in &extra {
            db.upsert(key, val(1)).unwrap();
        }
        let mutated = shards_of(&extra);
        prop_assert_eq!(db.dirty_shards(), mutated.clone());
        let stats = db.save().unwrap();
        // One data file per mutated shard at most (files can also be
        // shared after compaction, never multiplied).
        prop_assert!(stats.data_files_written <= mutated.len());
        prop_assert!(stats.data_files_written >= 1);
        // An untouched re-save writes nothing at all.
        prop_assert_eq!(db.save().unwrap().data_files_written, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_is_idempotent_and_preserves_contents(
        keys in proptest::collection::vec("[0-9a-f]{16}", 1..80),
        target in 1usize..40,
    ) {
        let dir = case_dir("compact");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "props").unwrap();
        for (i, key) in keys.iter().enumerate() {
            db.upsert(key, val(i as i64)).unwrap();
        }
        db.save().unwrap();

        let first = db.compact_with_target(target).unwrap();
        let manifest_after_first =
            std::fs::read_to_string(dir.join(synapse_store::sharded::MANIFEST_FILE)).unwrap();
        let second = db.compact_with_target(target).unwrap();
        prop_assert!(!second.changed, "second pass must be a no-op: {:?}", second);
        prop_assert_eq!(first.files_after, second.files_after);
        let manifest_after_second =
            std::fs::read_to_string(dir.join(synapse_store::sharded::MANIFEST_FILE)).unwrap();
        prop_assert_eq!(manifest_after_first, manifest_after_second);

        // Contents survive both passes and a reload.
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "props").unwrap();
        prop_assert_eq!(back.len(), db.len());
        for key in &keys {
            prop_assert_eq!(back.get(key, <[u8]>::to_vec), db.get(key, <[u8]>::to_vec));
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn removals_tombstone_and_survive_reload(
        keys in proptest::collection::vec("[0-9a-f]{16}", 2..40),
        drop_each in 2usize..5,
    ) {
        let dir = case_dir("remove");
        let db = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "props").unwrap();
        for key in &keys {
            db.upsert(key, val(7)).unwrap();
        }
        db.save().unwrap();
        let dropped: Vec<&String> = keys.iter().step_by(drop_each).collect();
        for key in &dropped {
            db.remove(key);
        }
        db.save().unwrap();
        let back = ShardedDb::open(&dir, DEFAULT_DOC_LIMIT, "props").unwrap();
        prop_assert_eq!(back.len(), db.len());
        for key in &dropped {
            prop_assert!(back.get(key, <[u8]>::to_vec).is_none());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_files_roundtrip(
        keys in proptest::collection::vec("[0-9a-f]{0,20}", 0..30),
        lens in proptest::collection::vec(0usize..200, 30..31),
    ) {
        let bytes = shard_file(&keys, &lens);
        // Pinned header: magic, format 2, record count.
        prop_assert_eq!(&bytes[..8], SHARD_MAGIC);
        prop_assert_eq!(&bytes[8..12], &2u32.to_le_bytes());
        prop_assert_eq!(&bytes[12..20], &(keys.len() as u64).to_le_bytes());
        let back = decode_shard(&bytes).unwrap();
        prop_assert_eq!(back.len(), keys.len());
        for ((k, v), (key, len)) in back.iter().zip(keys.iter().zip(&lens)) {
            prop_assert_eq!(k, key);
            prop_assert_eq!(v.len(), *len);
        }
    }

    #[test]
    fn truncated_shard_files_are_corrupt_not_panics(
        keys in proptest::collection::vec("[0-9a-f]{1,20}", 1..20),
        lens in proptest::collection::vec(0usize..200, 20..21),
        cut in any::<u64>(),
    ) {
        let bytes = shard_file(&keys, &lens);
        let cut = (cut % bytes.len() as u64) as usize;
        prop_assert!(is_corrupt(decode_shard(&bytes[..cut])), "cut at {}", cut);
        // Trailing bytes are corrupt too.
        let mut long = bytes.clone();
        long.push(0);
        prop_assert!(is_corrupt(decode_shard(&long)));
    }

    #[test]
    fn garbage_shard_files_are_corrupt_not_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..300),
        keep_header in any::<bool>(),
    ) {
        // Garbage after a valid magic and version exercises the record
        // decoder; raw garbage exercises the header checks.
        let mut bytes = Vec::new();
        if keep_header {
            bytes.extend_from_slice(SHARD_MAGIC);
            bytes.extend_from_slice(&2u32.to_le_bytes());
        }
        bytes.extend_from_slice(&garbage);
        // Garbage may happen to decode; anything else must be a typed
        // error.
        if let Err(e) = decode_shard(&bytes) {
            prop_assert!(matches!(e, StoreError::Corrupt(_)), "{}", e);
        }
    }

    #[test]
    fn wrong_magic_or_version_is_corrupt(
        keys in proptest::collection::vec("[0-9a-f]{1,20}", 0..10),
        lens in proptest::collection::vec(0usize..50, 10..11),
        at in 0usize..12,
        flip in 1u8..255,
    ) {
        let mut bytes = shard_file(&keys, &lens);
        bytes[at] ^= flip;
        prop_assert!(is_corrupt(decode_shard(&bytes)));
    }
}
