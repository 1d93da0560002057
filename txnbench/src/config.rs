//! Every configuration the benchmark uses, spelled out field by field so
//! that no default and no environment variable decides a measured value.

use sbcc_core::{
    ConflictPolicy, CycleDetector, DatabaseConfig, FsyncPolicy, RecoveryStrategy, ReorderStrategy,
    SchedulerConfig, ShardCount, UndeclaredPolicy, VictimPolicy, WalConfig,
};
use sbcc_net::{ServerConfig, MAX_FRAME_LEN};
use std::path::PathBuf;
use std::time::Duration;

/// Variables the library reads silently (`DatabaseConfig::new`,
/// `declared_from_env`); the benchmark refuses to run while any is set.
pub const FORBIDDEN_ENV: [&str; 4] = ["SBCC_SHARDS", "SBCC_WAL", "SBCC_WAL_FSYNC", "SBCC_DECLARED"];

pub fn scheduler() -> SchedulerConfig {
    SchedulerConfig {
        policy: ConflictPolicy::Recoverability,
        fair_scheduling: true,
        recovery: RecoveryStrategy::IntentionsList,
        victim: VictimPolicy::Requester,
        cycle_detector: CycleDetector::Incremental,
        reorder: ReorderStrategy::GapLabel,
        // The serializability checker's history grows with every
        // operation; a service runs without it.
        record_history: false,
        max_retries: 10_000,
        undeclared: UndeclaredPolicy::Escalate,
    }
}

pub fn database(wal: Option<WalConfig>) -> DatabaseConfig {
    DatabaseConfig {
        scheduler: scheduler(),
        shards: ShardCount::Fixed(1),
        wal,
    }
}

/// Group commit with the library's default 2 ms window.
pub fn wal(dir: PathBuf) -> WalConfig {
    WalConfig {
        dir,
        fsync: FsyncPolicy::GroupCommit,
        group_commit_window: Duration::from_millis(2),
    }
}

/// The server's default configuration, written out.
pub fn server() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        workers: 2,
        max_in_flight_per_conn: 32,
        read_timeout: Duration::from_secs(5),
        poll_interval: Duration::from_millis(5),
        max_frame_len: MAX_FRAME_LEN,
    }
}

/// A fresh directory under `.txnbench_work/` in the working directory,
/// removed on drop.
#[derive(Debug)]
pub struct WorkDir(pub PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let path = PathBuf::from(".txnbench_work").join(format!(
            "{tag}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create a work directory in the checkout");
        WorkDir(path)
    }

    /// Total size in bytes of the files in the directory.
    pub fn size_bytes(&self) -> u64 {
        std::fs::read_dir(&self.0)
            .map(|entries| {
                entries
                    .filter_map(Result::ok)
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind when this was the last run's dir.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}
