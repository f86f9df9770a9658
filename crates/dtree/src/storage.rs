//! The storage seam under the durability layer: [`crate::wal`] and
//! `core::persist` touch files only through a [`Storage`]. Production
//! uses [`DirStorage`]; a test can put an in-memory storage underneath
//! and crash it after any call. The crash model is stated here: bytes a
//! [`StorageFile::sync`] covered survive, and of those appended since,
//! any prefix may survive. WAL appends reach this module under the
//! admission write lock, so it is held to the no-panic serving rule.

use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::Path;

/// One file opened by [`Storage::create`], written front to back.
pub trait StorageFile: Send + Sync + std::fmt::Debug {
    /// Append `bytes` at the end of the file. On error any prefix of
    /// `bytes` may have landed.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Make every byte appended so far durable.
    fn sync(&mut self) -> io::Result<()>;
    /// Cut the file back to `len` bytes, so the next append lands at
    /// `len`. Not synced: the cut is as durable as the bytes it drops.
    fn truncate(&mut self, len: u64) -> io::Result<()>;
}

/// Where the durability layer keeps its files.
pub trait Storage: Send + Sync + std::fmt::Debug {
    /// Create `dir` (and its parents) when missing.
    fn create_dir(&self, dir: &Path) -> io::Result<()>;
    /// Create `path` empty and open it for appends. Fails when `path`
    /// exists: nothing is ever overwritten in place.
    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>>;
    /// The whole contents of `path`.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// The names of the files directly under `dir`, in no set order.
    fn list(&self, dir: &Path) -> io::Result<Vec<String>>;
    /// Atomically rename `from` to `to` (replacing `to`) and make the
    /// rename durable.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove `path`.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Cut `path` back to `len` bytes and make the cut durable.
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()>;
}

/// The production [`Storage`]: plain files in a directory.
#[derive(Debug, Clone, Copy, Default)]
pub struct DirStorage;

/// A [`DirStorage`] file: its first sync is an `fsync` (the inode is
/// new), later ones `fdatasync`.
#[derive(Debug)]
struct DirFile {
    file: File,
    synced_once: bool,
}

impl StorageFile for DirFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        if self.synced_once {
            self.file.sync_data()
        } else {
            self.file.sync_all()?;
            self.synced_once = true;
            Ok(())
        }
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)?;
        self.file.seek(SeekFrom::Start(len)).map(drop)
    }
}

impl Storage for DirStorage {
    fn create_dir(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        let file = OpenOptions::new().write(true).create_new(true).open(path)?;
        Ok(Box::new(DirFile { file, synced_once: false }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            if let Some(name) = entry?.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        Ok(names)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        match to.parent() {
            Some(dir) if !dir.as_os_str().is_empty() => File::open(dir)?.sync_all(),
            _ => File::open(".")?.sync_all(),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()
    }
}
