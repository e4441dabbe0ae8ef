//! Page-buffer sharing through DRBD replication.
//!
//! A flushed cache page reaches the primary disk, the DRBD write log and,
//! at commit, the backup disk as one shared `PageBuf`. Later writes on the
//! primary never change the backup's committed bytes.

use nilicon_drbd::{DrbdBackup, DrbdPrimary};
use nilicon_sim::block::BlockDevice;
use nilicon_sim::fs::PageCache;
use nilicon_sim::ids::{DevId, Ino};
use nilicon_sim::{PageBuf, PAGE_SIZE};
use std::rc::Rc;

fn filled(tag: u8) -> PageBuf {
    Rc::new([tag; PAGE_SIZE])
}

fn cached(pc: &PageCache, ino: Ino, idx: u64) -> PageBuf {
    Rc::clone(&pc.get(ino, idx).expect("cached page").data)
}

#[test]
fn drbd_commit_to_apply_replicated() {
    let mut pc = PageCache::new();
    let mut pdisk = BlockDevice::new(DevId(1));
    let mut bdisk = BlockDevice::new(DevId(2));
    let mut primary = DrbdPrimary::new();
    let mut backup = DrbdBackup::new();

    pc.write(Ino(5), 0, 0, b"committed");
    pc.flush(&mut pdisk, None);
    for msg in primary.ship(&mut pdisk) {
        backup.receive(msg);
    }
    backup.receive(primary.barrier(1));
    assert_eq!(backup.commit(1, &mut bdisk), 1);
    let page = cached(&pc, Ino(5), 0);
    assert!(Rc::ptr_eq(&page, pdisk.read_page(Ino(5), 0).unwrap()));
    assert!(Rc::ptr_eq(&page, bdisk.read_page(Ino(5), 0).unwrap()));

    // The next epoch's cache write and disk write leave the committed
    // backup page alone.
    pc.write(Ino(5), 0, 0, b"uncommitd");
    pc.flush(&mut pdisk, None);
    pdisk.write_page(Ino(5), 1, filled(3));
    for msg in primary.ship(&mut pdisk) {
        backup.receive(msg);
    }
    assert_eq!(&bdisk.read_page(Ino(5), 0).unwrap()[..9], b"committed");
    assert!(bdisk.read_page(Ino(5), 1).is_none());
    assert_eq!(backup.discard_uncommitted(), 2);
}
