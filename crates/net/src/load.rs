//! The loader's set-owned writers on a node daemon. Every `Append` into
//! a set resumes one sequential writer, so a loaded set's pages are
//! sealed when they are full rather than once per request, and
//! `AppendEnd` seals the tail page. A writer opens with the first
//! `Append`, is replaced when the set under its name is recreated, and
//! is closed — its open page sealed into the set — before `DropSet` or
//! `IngestBegin` drops the set.

use crate::session::local_set;
use pangea_common::{FxHashMap, Result, SetId};
use pangea_core::{SeqWriter, StorageNode};
use parking_lot::Mutex;
use std::sync::Arc;

/// One set's writer; `None` once it was closed, which sends an append
/// that looked it up just before back to the table.
type Slot = Arc<Mutex<Option<SeqWriter>>>;

/// The open loader writers of one daemon, by set name.
#[derive(Debug, Default)]
pub(crate) struct LoadWriters {
    /// Each writer with the id of the set it writes. An append resolves
    /// its set under this lock and [`LoadWriters::retire`] holds it
    /// across the set's drop, so no writer opens on a set being
    /// dropped. Nothing waits for this lock while holding a slot's.
    open: Mutex<FxHashMap<String, (SetId, Slot)>>,
}

impl LoadWriters {
    /// Appends `records`, in order, through `set`'s writer — one write
    /// guard per page they fill — and returns `(records, payload
    /// bytes)`.
    pub(crate) fn append(
        &self,
        node: &StorageNode,
        set: &str,
        records: &[Vec<u8>],
    ) -> Result<(u64, u64)> {
        loop {
            let handle = self.resolve(node, set)?;
            let mut slot = handle.lock();
            let Some(writer) = slot.as_mut() else {
                continue;
            };
            writer.add_objects(records.iter().map(Vec::as_slice))?;
            let bytes = records.iter().map(|rec| rec.len() as u64).sum();
            return Ok((records.len() as u64, bytes));
        }
    }

    /// `set`'s writer, opened on the live set when there is none or the
    /// one held writes a set that no longer carries the name.
    fn resolve(&self, node: &StorageNode, set: &str) -> Result<Slot> {
        let mut open = self.open.lock();
        let target = local_set(node, set)?;
        match open.get(set) {
            Some((id, slot)) if *id == target.id() => Ok(Arc::clone(slot)),
            _ => {
                let slot = Arc::new(Mutex::new(Some(target.writer())));
                open.insert(set.to_string(), (target.id(), Arc::clone(&slot)));
                Ok(slot)
            }
        }
    }

    /// Seals `set`'s tail page and closes its writer: the durability
    /// point of a load. Idempotent — with no open writer it does
    /// nothing.
    pub(crate) fn end(&self, set: &str) -> Result<()> {
        let Some((_, slot)) = self.open.lock().remove(set) else {
            return Ok(());
        };
        let writer = slot.lock().take();
        match writer {
            Some(mut writer) => writer.finish(),
            None => Ok(()),
        }
    }

    /// Closes `set`'s writer, sealing its open page into the set, then
    /// runs `drop_set` — the request's drop or truncation of the set —
    /// before any append can open a writer on it again.
    pub(crate) fn retire<T>(&self, set: &str, drop_set: impl FnOnce() -> Result<T>) -> Result<T> {
        let mut open = self.open.lock();
        if let Some((_, slot)) = open.remove(set) {
            *slot.lock() = None;
        }
        let out = drop_set();
        drop(open);
        out
    }
}
