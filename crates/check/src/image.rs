//! A decoded, address-indexed picture of one log — the linter's input.
//!
//! The image can be built from a live [`StableLog`] (every forced record is
//! read backward, decoded, and indexed), or from an already-decoded entry
//! list such as `HybridLogRs::dump_entries` / `SimpleLogRs::dump_entries`
//! hand back. Decode failures do not abort construction: they are recorded
//! and surface as I1 violations, so the linter can report on a corrupt log
//! instead of refusing to look at it.

use argus_core::{decode_entry, LogEntry};
use argus_sim::{CostModel, SimClock};
use argus_slog::{LogAddress, StableLog};
use argus_stable::{DurableFileStore, PageStore};
use std::collections::BTreeMap;
use std::path::Path;

/// Opens the stable log in the store file at `path` for inspection, on a
/// private copy of the file. Opening a log begins its next epoch on the
/// medium (a page write and a barrier), and an inspector must leave the
/// image it is shown exactly as the crash left it — published tail, epoch
/// and stale frames included. The copy is unlinked at once; the open store
/// keeps it alive.
pub fn open_copy(path: &Path) -> Result<StableLog<DurableFileStore>, Box<dyn std::error::Error>> {
    let copy = std::env::temp_dir().join(format!("argus-inspect-{}", std::process::id()));
    std::fs::copy(path, &copy)?;
    let store = DurableFileStore::open(&copy, SimClock::new(), CostModel::fast());
    std::fs::remove_file(&copy)?;
    Ok(StableLog::open(store?)?)
}

/// One record that could not be decoded into a [`LogEntry`].
#[derive(Debug, Clone)]
pub struct BadRecord {
    /// Where the record sits.
    pub addr: LogAddress,
    /// Its device sequence number.
    pub seq: u64,
    /// Why decoding failed (codec error or device-level corruption).
    pub why: String,
}

/// A decoded log image: every forced entry, oldest first, indexed by address.
#[derive(Debug, Clone, Default)]
pub struct LogImage {
    entries: Vec<(LogAddress, LogEntry)>,
    by_addr: BTreeMap<u64, usize>,
    /// Sequence numbers parallel to `entries`, when the image came from a
    /// device (entry lists fabricated in memory have none).
    seqs: Option<Vec<u64>>,
    /// Records that failed to decode.
    bad: Vec<BadRecord>,
}

impl LogImage {
    /// Builds an image from already-decoded entries (ascending addresses, as
    /// `dump_entries` returns them).
    pub fn from_entries(entries: Vec<(LogAddress, LogEntry)>) -> Self {
        let mut entries = entries;
        entries.sort_by_key(|(a, _)| *a);
        let by_addr = entries
            .iter()
            .enumerate()
            .map(|(i, (a, _))| (a.offset(), i))
            .collect();
        Self {
            entries,
            by_addr,
            seqs: None,
            bad: Vec::new(),
        }
    }

    /// Reads every forced record of `log` and decodes it. Undecodable
    /// records land in [`LogImage::bad_records`] rather than failing.
    pub fn from_log<S: PageStore>(log: &mut StableLog<S>) -> Self {
        let mut raw: Vec<(LogAddress, u64, Result<LogEntry, String>)> = Vec::new();
        for item in log.read_backward(None) {
            match item {
                Ok((addr, seq, payload)) => {
                    let decoded = decode_entry(&payload).map_err(|e| e.to_string());
                    raw.push((addr, seq, decoded));
                }
                Err(e) => {
                    // The walk itself broke: record the failure at the point
                    // it happened and stop (nothing older is reachable).
                    raw.push((LogAddress(0), 0, Err(format!("backward walk: {e}"))));
                    break;
                }
            }
        }
        raw.reverse();
        let mut entries = Vec::new();
        let mut seqs = Vec::new();
        let mut bad = Vec::new();
        for (addr, seq, decoded) in raw {
            match decoded {
                Ok(entry) => {
                    entries.push((addr, entry));
                    seqs.push(seq);
                }
                Err(why) => bad.push(BadRecord { addr, seq, why }),
            }
        }
        // Already in address order, so `seqs` stays parallel.
        Self {
            seqs: Some(seqs),
            bad,
            ..Self::from_entries(entries)
        }
    }

    /// Every decoded entry, oldest first.
    pub fn entries(&self) -> &[(LogAddress, LogEntry)] {
        &self.entries
    }

    /// The entry at `addr`, if one was decoded there.
    pub fn get(&self, addr: LogAddress) -> Option<&LogEntry> {
        self.by_addr
            .get(&addr.offset())
            .map(|&i| &self.entries[i].1)
    }

    /// Device sequence numbers parallel to [`LogImage::entries`], when known.
    pub fn seqs(&self) -> Option<&[u64]> {
        self.seqs.as_deref()
    }

    /// Records that failed to decode.
    pub fn bad_records(&self) -> &[BadRecord] {
        &self.bad
    }

    /// The newest outcome entry's address — the head of the backward chain.
    pub fn chain_head(&self) -> Option<LogAddress> {
        self.entries
            .iter()
            .rev()
            .find(|(_, e)| e.is_outcome())
            .map(|(a, _)| *a)
    }

    /// Number of decoded entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the image holds no decoded entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use argus_core::{encode_entry, LogEntry};
    use argus_objects::{ActionId, GuardianId};
    use argus_sim::{CostModel, SimClock};
    use argus_stable::MemStore;

    fn aid(n: u64) -> ActionId {
        ActionId::new(GuardianId(0), n)
    }

    #[test]
    fn from_log_decodes_forced_entries_oldest_first() {
        let mut log = StableLog::create(MemStore::new(SimClock::new(), CostModel::fast())).unwrap();
        let e1 = LogEntry::Prepared {
            aid: aid(1),
            pairs: vec![],
            prev: None,
        };
        let a1 = log.force_write(&encode_entry(&e1).unwrap()).unwrap();
        let e2 = LogEntry::Committed {
            aid: aid(1),
            prev: Some(a1),
        };
        let a2 = log.force_write(&encode_entry(&e2).unwrap()).unwrap();
        log.write(b"never forced, never seen");

        let image = LogImage::from_log(&mut log);
        assert_eq!(image.len(), 2);
        assert_eq!(image.entries()[0], (a1, e1));
        assert_eq!(image.entries()[1], (a2, e2.clone()));
        assert_eq!(image.get(a2), Some(&e2));
        assert_eq!(image.chain_head(), Some(a2));
        assert_eq!(image.seqs(), Some(&[0, 1][..]));
        assert!(image.bad_records().is_empty());
    }

    #[test]
    fn undecodable_records_are_collected_not_fatal() {
        let mut log = StableLog::create(MemStore::new(SimClock::new(), CostModel::fast())).unwrap();
        log.force_write(b"\xffjunk that is not an entry").unwrap();
        let ok = LogEntry::Done {
            aid: aid(1),
            prev: None,
        };
        log.force_write(&encode_entry(&ok).unwrap()).unwrap();
        let image = LogImage::from_log(&mut log);
        assert_eq!(image.len(), 1);
        assert_eq!(image.bad_records().len(), 1);
    }

    #[test]
    fn from_entries_sorts_and_indexes() {
        let e = |n| LogEntry::Done {
            aid: aid(n),
            prev: None,
        };
        let image = LogImage::from_entries(vec![(LogAddress(900), e(2)), (LogAddress(512), e(1))]);
        assert_eq!(image.entries()[0].0, LogAddress(512));
        assert_eq!(image.get(LogAddress(900)), Some(&e(2)));
        assert_eq!(image.chain_head(), Some(LogAddress(900)));
    }
}
