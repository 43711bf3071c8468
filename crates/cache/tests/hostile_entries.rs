//! Entries that a hostile user or a crashed writer can leave on disk load
//! as cache misses, never as an abort or a panic: every default solver
//! construction reads the cache, so one bad file must cost at most a cold
//! build.

use qls_cache::{CacheStore, FingerprintBuilder};
use std::fs;

type Payload = Vec<Vec<f64>>;

#[test]
fn nested_truncated_and_non_utf8_entries_load_as_misses() {
    let root = std::env::temp_dir().join(format!("qls-cache-hostile-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let store = CacheStore::at(&root);
    let key = FingerprintBuilder::new("hostile-entries")
        .write_u64(1)
        .finish();
    let payload: Payload = vec![vec![1.0, -2.5], vec![3.0]];
    assert!(store.store("k", 1, key, &payload));
    assert_eq!(store.load::<Payload>("k", 1, key), Some(payload));

    let path = root
        .join("k")
        .join("v1")
        .join(format!("{}.json", key.hex()));
    let valid = fs::read(&path).unwrap();
    let text = String::from_utf8(valid.clone()).unwrap();
    let deep = "[".repeat(1_000_000);
    let mut non_utf8 = valid.clone();
    let at = text.find(&key.hex()).unwrap();
    non_utf8[at] = 0xff;
    let deep_payload = text.replace("[[1.0,-2.5],[3.0]]", &deep);
    assert_ne!(deep_payload, text, "the payload sits in the envelope");
    let hostile: [(&str, Vec<u8>); 4] = [
        ("10^6 nested `[`", deep.into_bytes()),
        ("10^6 nested `[` as the payload", deep_payload.into_bytes()),
        ("truncated", valid[..valid.len() / 2].to_vec()),
        ("non-UTF-8", non_utf8),
    ];
    for (what, bytes) in hostile {
        fs::write(&path, bytes).unwrap();
        assert_eq!(store.load::<Payload>("k", 1, key), None, "{what}");
    }
    let _ = fs::remove_dir_all(&root);
}
