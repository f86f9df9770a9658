//! An in-memory [`Storage`] that images its files after any mutating
//! call and crashes an image on demand: each file keeps its synced
//! bytes and a chosen prefix of its unsynced tail, and a cut not yet
//! synced may be undone. Shared by the lifecycle simulator and the
//! crash soak, each of which uses part of it.
#![allow(dead_code)]

use dtree::storage::{Storage, StorageFile};
use std::collections::BTreeMap;
use std::io::{self, ErrorKind};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One file: its bytes, how many a sync covered, and where each append
/// ended (the record boundaries).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MemFile {
    pub data: Vec<u8>,
    pub synced: usize,
    pub ends: Vec<usize>,
    /// The synced file as it was before a cut into its synced bytes:
    /// what a power loss leaves until the next sync.
    pub uncut: Option<Box<MemFile>>,
}

impl MemFile {
    fn cut(&mut self, len: usize) {
        if len < self.synced && self.uncut.is_none() {
            let mut old = self.clone();
            old.cut(self.synced);
            self.uncut = Some(Box::new(old));
        }
        self.data.truncate(len);
        self.ends.retain(|&e| e <= len);
        self.synced = self.synced.min(len);
    }

    fn sync(&mut self) {
        (self.synced, self.uncut) = (self.data.len(), None);
    }

    fn is_synced(&self) -> bool {
        self.synced == self.data.len() && self.uncut.is_none()
    }
}

/// The files right after one mutating call, with the bounds a recovery
/// from them must meet: the newest epoch known synced before the call,
/// and the live epoch after it.
#[derive(Debug, Clone)]
pub struct Image {
    pub files: BTreeMap<PathBuf, MemFile>,
    pub floor: u64,
    pub ceiling: u64,
}

#[derive(Debug, Default)]
pub struct Disk {
    pub files: BTreeMap<PathBuf, MemFile>,
    pub calls: u64,
    /// Image the files after call `n` (after every call when 0).
    pub capture: Option<u64>,
    pub images: Vec<Image>,
    /// One-shot faults: the next sync fails (having written everything
    /// back, the worst case for what it leaves), the next append stops
    /// half-way, the next cut fails.
    pub fail_sync: bool,
    pub short_append: bool,
    pub fail_cut: bool,
}

impl Disk {
    fn file(&mut self, path: &Path) -> io::Result<&mut MemFile> {
        self.files.get_mut(path).ok_or(ErrorKind::NotFound.into())
    }
}

/// The in-memory [`Storage`]; clones share the files.
#[derive(Debug, Clone, Default)]
pub struct Mem(Arc<Mutex<Disk>>);

impl Mem {
    /// Run `f` on the files; a mutating call is imaged when armed.
    fn with<T>(&self, mutates: bool, f: impl FnOnce(&mut Disk) -> io::Result<T>) -> io::Result<T> {
        let mut disk = self.0.lock().expect("no storage call panics holding the lock");
        let out = f(&mut disk)?;
        disk.calls += u64::from(mutates);
        if mutates && disk.capture.is_some_and(|at| at == 0 || at == disk.calls) {
            let files = disk.files.clone();
            disk.images.push(Image { files, floor: 0, ceiling: 0 });
        }
        Ok(out)
    }

    pub fn set(&self, f: impl FnOnce(&mut Disk)) {
        f(&mut self.0.lock().expect("no storage call panics holding the lock"));
    }

    /// Hand over the images captured since the last call, bounded by
    /// `floor` and `ceiling`, and say whether every WAL byte is synced.
    pub fn take_images(&self, floor: u64, ceiling: u64) -> (Vec<Image>, bool) {
        let mut disk = self.0.lock().expect("no storage call panics holding the lock");
        let mut images = std::mem::take(&mut disk.images);
        images.iter_mut().for_each(|image| (image.floor, image.ceiling) = (floor, ceiling));
        let unsynced =
            |(p, f): (&PathBuf, &MemFile)| named(p, |n| n.starts_with("wal-")) && !f.is_synced();
        (images, !disk.files.iter().any(unsynced))
    }

    /// The files as they are now.
    pub fn image(&self) -> Image {
        let files = self.0.lock().expect("no storage call panics holding the lock").files.clone();
        Image { files, floor: 0, ceiling: 0 }
    }
}

#[derive(Debug)]
struct MemHandle(Mem, PathBuf);

impl StorageFile for MemHandle {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.0.with(true, |disk| {
            let short = std::mem::take(&mut disk.short_append);
            let file = disk.file(&self.1)?;
            file.data.extend_from_slice(&bytes[..bytes.len() / (1 + usize::from(short))]);
            if short {
                return Err(io::Error::other("injected short write"));
            }
            file.ends.push(file.data.len());
            Ok(())
        })
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.with(true, |disk| {
            let fail = std::mem::take(&mut disk.fail_sync);
            disk.file(&self.1)?.sync();
            match fail {
                true => Err(io::Error::other("injected sync failure")),
                false => Ok(()),
            }
        })
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.0.with(true, |disk| match std::mem::take(&mut disk.fail_cut) {
            true => Err(io::Error::other("injected cut failure")),
            false => disk.file(&self.1).map(|f| f.cut(len as usize)),
        })
    }
}

impl Storage for Mem {
    fn create_dir(&self, _: &Path) -> io::Result<()> {
        Ok(())
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn StorageFile>> {
        self.with(true, |disk| match disk.files.contains_key(path) {
            true => Err(ErrorKind::AlreadyExists.into()),
            false => Ok(disk.files.insert(path.to_path_buf(), MemFile::default())),
        })?;
        Ok(Box::new(MemHandle(self.clone(), path.to_path_buf())))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.with(false, |disk| Ok(disk.file(path)?.data.clone()))
    }

    fn list(&self, dir: &Path) -> io::Result<Vec<String>> {
        self.with(false, |disk| {
            let names = disk.files.keys().filter(|p| p.parent() == Some(dir));
            Ok(names.filter_map(|p| Some(p.file_name()?.to_str()?.to_string())).collect())
        })
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.with(true, |disk| {
            let file = disk.files.remove(from).ok_or(ErrorKind::NotFound)?;
            disk.files.insert(to.to_path_buf(), file);
            Ok(())
        })
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.with(true, |disk| disk.files.remove(path).map(drop).ok_or(ErrorKind::NotFound.into()))
    }

    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        // The cut is synced: everything left is durable.
        self.with(true, |disk| disk.file(path).map(|f| (f.cut(len as usize), f.sync()).1))
    }
}

pub fn named(path: &Path, test: impl Fn(&str) -> bool) -> bool {
    path.file_name().and_then(|n| n.to_str()).is_some_and(test)
}

impl Image {
    /// Whether a checkpoint has been renamed into place.
    pub fn has_checkpoint(&self) -> bool {
        self.files.keys().any(|p| p.extension().is_some_and(|e| e == "ncck"))
    }

    /// Whether the temporary checkpoint file is fully synced, when one
    /// is being written: `Some(false)` images a crash inside its write,
    /// `Some(true)` one between its sync and its rename.
    pub fn tmp_checkpoint_synced(&self) -> Option<bool> {
        let tmp = self.files.iter().find(|(p, _)| named(p, |n| n.ends_with(".ncck.tmp")));
        tmp.map(|(_, f)| !f.data.is_empty() && f.is_synced())
    }

    /// Crash: each file keeps its synced bytes and the prefix of its
    /// unsynced tail that `keep(tail length)` picks — 0 is a power
    /// loss, the whole tail a `kill -9`, anything between a torn write.
    /// A power loss also undoes an unsynced cut. Also says whether a
    /// WAL file now ends off a record boundary, and whether past its
    /// header (a crash inside a WAL append).
    pub fn crash(&self, mut keep: impl FnMut(usize) -> usize) -> (Mem, bool, bool) {
        let (mut torn, mut torn_record, mut files) = (false, false, self.files.clone());
        for (path, file) in &mut files {
            let kept = keep(file.data.len() - file.synced);
            match file.uncut.take() {
                Some(old) if kept == 0 => *file = *old,
                _ => file.cut(file.synced + kept),
            }
            file.sync();
            if named(path, |n| n.starts_with("wal-")) && !file.ends.contains(&file.data.len()) {
                torn = true;
                torn_record |= file.ends.first().is_some_and(|&header| file.data.len() > header);
            }
        }
        (Mem(Arc::new(Mutex::new(Disk { files, ..Disk::default() }))), torn, torn_record)
    }
}
