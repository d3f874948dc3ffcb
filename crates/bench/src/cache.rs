//! Disk cache for the measurement grid: the 1,224-workload x 44-config
//! sweep takes a while, and several experiment binaries need it, so the
//! first run persists it under `results/cache/`.

use dopia_core::training::WorkloadRecord;
use std::path::PathBuf;

const HEADER: &str = "# dopia-grid v1 crc32=";

fn cache_path(platform: &str, step: usize) -> PathBuf {
    let dir = crate::results_dir().join("cache");
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir.join(format!("grid_{}_step{}.tsv", platform.to_lowercase(), step))
}

/// Serialize records (one line per workload). The file gets a checksum
/// header and lands via temp-file + atomic rename, so a crash mid-sweep
/// can never leave a torn cache that silently skews later experiments.
pub fn save(platform: &str, step: usize, records: &[WorkloadRecord]) {
    let mut text = String::new();
    for r in records {
        text.push_str(&r.to_tsv());
        text.push('\n');
    }
    let with_header = format!("{}{:08x}\n{}", HEADER, ml::io::crc32(text.as_bytes()), text);
    ml::io::atomic_write(&cache_path(platform, step), with_header.as_bytes())
        .expect("write grid cache");
}

/// Load records if a cache exists, carries the checksum header, matches
/// its checksum and parses cleanly. Anything else is measured again.
pub fn load(platform: &str, step: usize) -> Option<Vec<WorkloadRecord>> {
    let text = std::fs::read_to_string(cache_path(platform, step)).ok()?;
    let (header, body) = text.split_once('\n')?;
    let want = u32::from_str_radix(header.strip_prefix(HEADER)?, 16).ok()?;
    if ml::io::crc32(body.as_bytes()) != want {
        return None;
    }
    body.lines().map(WorkloadRecord::from_tsv).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dopia_core::CodeFeatures;

    #[test]
    fn round_trips_records() {
        std::env::set_var("DOPIA_RESULTS_DIR", std::env::temp_dir().join("dopia_cache_test"));
        let records = vec![WorkloadRecord {
            name: "w1".into(),
            code: CodeFeatures {
                mem_constant: 1,
                mem_continuous: 2,
                mem_stride: 3,
                mem_random: 4,
                arith_int: 5,
                arith_float: 6,
            },
            work_dim: 2,
            global_size: 1024,
            local_size: 64,
            best_index: 1,
            times: vec![0.5, 0.25, 1.5],
        }];
        save("TestPlat", 3, &records);
        let loaded = load("TestPlat", 3).expect("cache loads");
        assert_eq!(loaded.len(), 1);
        assert_eq!(loaded[0].name, "w1");
        assert_eq!(loaded[0].times, records[0].times);
        assert_eq!(loaded[0].code, records[0].code);
        assert_eq!(loaded[0].best_index, 1);
        assert!(load("TestPlat", 4).is_none());

        // Flip a byte in the body: the checksum header must reject it.
        let path = cache_path("TestPlat", 3);
        let corrupt = std::fs::read_to_string(&path).unwrap().replacen("w1", "wX", 1);
        std::fs::write(&path, corrupt).unwrap();
        assert!(load("TestPlat", 3).is_none(), "corrupt cache was accepted");

        // A headerless cache skips the checksum, so it is rejected.
        save("TestPlat", 3, &records);
        let text = std::fs::read_to_string(&path).unwrap();
        let body = text.split_once('\n').unwrap().1.to_string();
        std::fs::write(&path, body).unwrap();
        assert!(load("TestPlat", 3).is_none(), "headerless cache was accepted");
        std::env::remove_var("DOPIA_RESULTS_DIR");
    }
}
