//! Injectable storage backends for the durability layer.
//!
//! [`StorageIo`] abstracts the handful of file operations the write-ahead
//! log and checkpointer need, so the same WAL code runs against real files
//! ([`FileIo`]), an in-memory filesystem with an fsync model ([`MemIo`]),
//! and a failpoint-driven wrapper that injects torn writes, I/O errors, and
//! crashes at exact write indexes ([`FaultyIo`]).

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use crate::error::{EngineError, Result};
use crate::sync::Mutex;

/// The file operations the durability layer needs. `name` is a flat file
/// name inside the backend's root (the WAL never uses subdirectories).
pub trait StorageIo: Send + Sync {
    /// Read a whole file; `Ok(None)` when it does not exist.
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;
    /// Append bytes, creating the file if needed.
    fn append(&self, name: &str, data: &[u8]) -> Result<()>;
    /// Make previously appended bytes durable (fsync).
    fn sync(&self, name: &str) -> Result<()>;
    /// Replace a file's contents atomically and durably (tmp + fsync +
    /// rename). Readers never observe a partial file.
    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()>;
    /// Shrink a file to `len` bytes (used to drop torn WAL suffixes).
    fn truncate(&self, name: &str, len: u64) -> Result<()>;
    /// Current size in bytes; 0 when the file does not exist.
    fn size(&self, name: &str) -> Result<u64>;
}

fn io_err(op: &str, name: &str, e: impl std::fmt::Display) -> EngineError {
    EngineError::wal(format!("{op} '{name}': {e}"))
}

/// Real-file backend rooted at a directory. Append handles are cached so the
/// per-commit hot path does not reopen the log.
pub struct FileIo {
    dir: PathBuf,
    handles: Mutex<HashMap<String, File>>,
}

impl FileIo {
    /// Open (creating if needed) a storage directory.
    pub fn new(dir: impl AsRef<Path>) -> Result<FileIo> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| io_err("create storage dir", &dir.display().to_string(), e))?;
        Ok(FileIo {
            dir,
            handles: Mutex::new(HashMap::new()),
        })
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Run `f` with the cached append handle for `name`, opening it lazily.
    fn with_handle<T>(
        &self,
        name: &str,
        f: impl FnOnce(&mut File) -> std::io::Result<T>,
    ) -> Result<T> {
        let mut handles = self.handles.lock();
        if !handles.contains_key(name) {
            let file = OpenOptions::new()
                .append(true)
                .create(true)
                .open(self.path(name))
                .map_err(|e| io_err("open", name, e))?;
            handles.insert(name.to_string(), file);
        }
        f(handles.get_mut(name).expect("inserted above")).map_err(|e| io_err("write", name, e))
    }
}

impl StorageIo for FileIo {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(data) => Ok(Some(data)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err("read", name, e)),
        }
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        self.with_handle(name, |f| f.write_all(data))
    }

    fn sync(&self, name: &str) -> Result<()> {
        self.with_handle(name, |f| f.sync_data())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        let tmp = self.path(&format!("{name}.tmp"));
        let run = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(data)?;
            f.sync_all()?;
            std::fs::rename(&tmp, self.path(name))?;
            // Make the rename itself durable.
            File::open(&self.dir)?.sync_all()?;
            Ok(())
        };
        run().map_err(|e| io_err("atomic write", name, e))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.with_handle(name, |f| f.set_len(len))
    }

    fn size(&self, name: &str) -> Result<u64> {
        match std::fs::metadata(self.path(name)) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(io_err("stat", name, e)),
        }
    }
}

/// One in-memory file: its full contents (what the OS page cache would hold)
/// plus a durable watermark (what has reached "disk" via fsync or an atomic
/// rename).
#[derive(Debug, Clone, Default)]
struct MemFile {
    data: Vec<u8>,
    synced: usize,
}

/// In-memory backend with an explicit fsync model: appended bytes live in
/// the "page cache" until [`StorageIo::sync`] advances the durable
/// watermark. [`MemIo::power_loss_files`] returns only durable bytes,
/// letting tests verify exactly which fsync policies survive power loss.
#[derive(Default)]
pub struct MemIo {
    files: Mutex<HashMap<String, MemFile>>,
}

impl MemIo {
    pub fn new() -> MemIo {
        MemIo::default()
    }

    /// Rebuild a backend from raw file contents (everything durable).
    pub fn from_files(files: HashMap<String, Vec<u8>>) -> MemIo {
        MemIo {
            files: Mutex::new(
                files
                    .into_iter()
                    .map(|(name, data)| {
                        let synced = data.len();
                        (name, MemFile { data, synced })
                    })
                    .collect(),
            ),
        }
    }

    /// Full current contents of every file — what survives a *process* crash
    /// (the OS page cache is intact).
    pub fn process_crash_files(&self) -> HashMap<String, Vec<u8>> {
        self.files
            .lock()
            .iter()
            .map(|(name, f)| (name.clone(), f.data.clone()))
            .collect()
    }

    /// Durable contents of every file — what survives a *power loss*
    /// (unsynced suffixes are gone).
    pub fn power_loss_files(&self) -> HashMap<String, Vec<u8>> {
        self.files
            .lock()
            .iter()
            .map(|(name, f)| (name.clone(), f.data[..f.synced].to_vec()))
            .collect()
    }
}

impl StorageIo for MemIo {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.files.lock().get(name).map(|f| f.data.clone()))
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        self.files
            .lock()
            .entry(name.to_string())
            .or_default()
            .data
            .extend_from_slice(data);
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<()> {
        if let Some(f) = self.files.lock().get_mut(name) {
            f.synced = f.data.len();
        }
        Ok(())
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        let synced = data.len();
        self.files.lock().insert(
            name.to_string(),
            MemFile {
                data: data.to_vec(),
                synced,
            },
        );
        Ok(())
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        if let Some(f) = self.files.lock().get_mut(name) {
            f.data.truncate(len as usize);
            f.synced = f.synced.min(f.data.len());
        }
        Ok(())
    }

    fn size(&self, name: &str) -> Result<u64> {
        Ok(self
            .files
            .lock()
            .get(name)
            .map_or(0, |f| f.data.len() as u64))
    }
}

/// What a failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The write fails cleanly; nothing reaches the file.
    Error,
    /// Only the first `n` bytes reach the file before the write fails —
    /// a torn write.
    ShortWrite(usize),
    /// The process "dies": the write is lost and every subsequent operation
    /// on this backend fails.
    Crash,
}

/// Failpoint-driven wrapper over [`MemIo`]: injects a fault at the Nth write
/// (counting both appends and atomic writes). After a [`FaultKind::Crash`],
/// every operation fails until the test "reboots" by harvesting the
/// surviving files.
///
/// Besides the one-shot exact-index failpoint ([`FaultyIo::arm`]), a
/// *transient* mode ([`FaultyIo::arm_transient`]) fails the next N
/// operations (appends, atomic writes, *and* fsyncs) and then heals — the
/// model of a disk hiccup that a bounded retry policy should ride out.
pub struct FaultyIo {
    inner: MemIo,
    fault: Mutex<Option<(u64, FaultKind)>>,
    writes: AtomicU64,
    crashed: AtomicBool,
    /// Remaining operations that fail transiently before the backend heals.
    transient: AtomicU64,
    /// Total operations failed by the transient mode (for test assertions).
    transient_fired: AtomicU64,
}

impl Default for FaultyIo {
    fn default() -> Self {
        Self::new()
    }
}

impl FaultyIo {
    pub fn new() -> FaultyIo {
        Self::from_files(HashMap::new())
    }

    pub fn from_files(files: HashMap<String, Vec<u8>>) -> FaultyIo {
        FaultyIo {
            inner: MemIo::from_files(files),
            fault: Mutex::new(None),
            writes: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            transient: AtomicU64::new(0),
            transient_fired: AtomicU64::new(0),
        }
    }

    /// Arm a failpoint: the `nth` write from now (0-based) triggers `kind`.
    pub fn arm(&self, nth: u64, kind: FaultKind) {
        *self.fault.lock() = Some((nth, kind));
        self.writes.store(0, Ordering::SeqCst);
    }

    /// Arm the transient mode: the next `n` operations (append, atomic
    /// write, or fsync) fail with a clean error, after which the backend
    /// heals and serves normally. Nothing reaches the file for a failed
    /// operation.
    pub fn arm_transient(&self, n: u64) {
        self.transient.store(n, Ordering::SeqCst);
    }

    /// Operations failed by the transient mode so far.
    pub fn transient_fired(&self) -> u64 {
        self.transient_fired.load(Ordering::SeqCst)
    }

    /// Consume one transient failure, if armed.
    fn transient_fault(&self, op: &str, name: &str) -> Result<()> {
        let mut remaining = self.transient.load(Ordering::SeqCst);
        loop {
            if remaining == 0 {
                return Ok(());
            }
            match self.transient.compare_exchange(
                remaining,
                remaining - 1,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => {
                    self.transient_fired.fetch_add(1, Ordering::SeqCst);
                    return Err(EngineError::wal(format!(
                        "injected transient {op} error on '{name}'"
                    )));
                }
                Err(actual) => remaining = actual,
            }
        }
    }

    /// Number of writes performed since construction or the last [`arm`].
    ///
    /// [`arm`]: FaultyIo::arm
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::SeqCst)
    }

    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// Files surviving a process crash (page cache intact).
    pub fn process_crash_files(&self) -> HashMap<String, Vec<u8>> {
        self.inner.process_crash_files()
    }

    /// Files surviving a power loss (only fsynced bytes).
    pub fn power_loss_files(&self) -> HashMap<String, Vec<u8>> {
        self.inner.power_loss_files()
    }

    fn check_alive(&self) -> Result<()> {
        if self.crashed() {
            Err(EngineError::wal("storage backend crashed (injected)"))
        } else {
            Ok(())
        }
    }

    /// Returns the fault to inject for this write, if the failpoint fires.
    fn next_write_fault(&self) -> Option<FaultKind> {
        let n = self.writes.fetch_add(1, Ordering::SeqCst);
        let mut fault = self.fault.lock();
        match *fault {
            Some((at, kind)) if at == n => {
                *fault = None;
                Some(kind)
            }
            _ => None,
        }
    }
}

impl StorageIo for FaultyIo {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        self.check_alive()?;
        self.inner.read(name)
    }

    fn append(&self, name: &str, data: &[u8]) -> Result<()> {
        self.check_alive()?;
        self.transient_fault("append", name)?;
        match self.next_write_fault() {
            None => self.inner.append(name, data),
            Some(FaultKind::Error) => Err(EngineError::wal(format!(
                "injected write error on '{name}'"
            ))),
            Some(FaultKind::ShortWrite(n)) => {
                self.inner.append(name, &data[..n.min(data.len())])?;
                Err(EngineError::wal(format!(
                    "injected short write on '{name}' ({n} of {} bytes)",
                    data.len()
                )))
            }
            Some(FaultKind::Crash) => {
                self.crashed.store(true, Ordering::SeqCst);
                Err(EngineError::wal("storage backend crashed (injected)"))
            }
        }
    }

    fn sync(&self, name: &str) -> Result<()> {
        self.check_alive()?;
        self.transient_fault("fsync", name)?;
        self.inner.sync(name)
    }

    fn write_atomic(&self, name: &str, data: &[u8]) -> Result<()> {
        self.check_alive()?;
        self.transient_fault("atomic write", name)?;
        match self.next_write_fault() {
            None => self.inner.write_atomic(name, data),
            // An atomic write cannot be torn: a short write hits the temp
            // file, so the visible file is simply left unchanged.
            Some(FaultKind::Error) | Some(FaultKind::ShortWrite(_)) => Err(EngineError::wal(
                format!("injected write error on '{name}'"),
            )),
            Some(FaultKind::Crash) => {
                self.crashed.store(true, Ordering::SeqCst);
                Err(EngineError::wal("storage backend crashed (injected)"))
            }
        }
    }

    fn truncate(&self, name: &str, len: u64) -> Result<()> {
        self.check_alive()?;
        self.inner.truncate(name, len)
    }

    fn size(&self, name: &str) -> Result<u64> {
        self.check_alive()?;
        self.inner.size(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_io_models_fsync() {
        let io = MemIo::new();
        io.append("wal", b"aaaa").unwrap();
        io.sync("wal").unwrap();
        io.append("wal", b"bbbb").unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"aaaabbbb");
        assert_eq!(io.process_crash_files()["wal"], b"aaaabbbb");
        // Power loss drops the unsynced suffix.
        assert_eq!(io.power_loss_files()["wal"], b"aaaa");
        // An atomic write is durable by itself.
        io.write_atomic("cp", b"snapshot").unwrap();
        assert_eq!(io.power_loss_files()["cp"], b"snapshot");
    }

    #[test]
    fn mem_io_truncate_clamps_watermark() {
        let io = MemIo::new();
        io.append("wal", b"abcdef").unwrap();
        io.sync("wal").unwrap();
        io.truncate("wal", 2).unwrap();
        io.append("wal", b"ZZ").unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"abZZ");
        assert_eq!(io.power_loss_files()["wal"], b"ab");
    }

    #[test]
    fn faulty_io_fires_once_at_exact_write() {
        let io = FaultyIo::new();
        io.arm(1, FaultKind::Error);
        io.append("wal", b"one").unwrap();
        assert!(io.append("wal", b"two").is_err());
        io.append("wal", b"three").unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"onethree");
    }

    #[test]
    fn faulty_io_short_write_tears() {
        let io = FaultyIo::new();
        io.arm(0, FaultKind::ShortWrite(2));
        assert!(io.append("wal", b"abcdef").is_err());
        assert_eq!(io.read("wal").unwrap().unwrap(), b"ab");
    }

    #[test]
    fn faulty_io_crash_is_terminal() {
        let io = FaultyIo::new();
        io.append("wal", b"pre").unwrap();
        io.sync("wal").unwrap();
        io.arm(0, FaultKind::Crash);
        assert!(io.append("wal", b"post").is_err());
        assert!(io.read("wal").is_err());
        assert!(io.sync("wal").is_err());
        assert!(io.crashed());
        assert_eq!(io.power_loss_files()["wal"], b"pre");
    }

    #[test]
    fn faulty_io_transient_fails_n_then_heals() {
        let io = FaultyIo::new();
        io.arm_transient(3);
        assert!(io.append("wal", b"a").is_err());
        assert!(io.sync("wal").is_err());
        assert!(io.write_atomic("cp", b"x").is_err());
        assert_eq!(io.transient_fired(), 3);
        // Healed: nothing from the failed operations reached the files.
        io.append("wal", b"ok").unwrap();
        io.sync("wal").unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"ok");
        assert_eq!(io.read("cp").unwrap(), None);
        assert!(!io.crashed());
    }

    #[test]
    fn file_io_roundtrip() {
        let dir = std::env::temp_dir().join(format!("sqlengine_fileio_{}", std::process::id()));
        let io = FileIo::new(&dir).unwrap();
        assert_eq!(io.read("wal").unwrap(), None);
        assert_eq!(io.size("wal").unwrap(), 0);
        io.append("wal", b"hello ").unwrap();
        io.append("wal", b"world").unwrap();
        io.sync("wal").unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"hello world");
        io.truncate("wal", 5).unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"hello");
        assert_eq!(io.size("wal").unwrap(), 5);
        io.write_atomic("cp", b"{}").unwrap();
        assert_eq!(io.read("cp").unwrap().unwrap(), b"{}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
