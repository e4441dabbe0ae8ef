//! Page-buffer sharing across layers.
//!
//! Every layer holds pages as one refcounted `PageBuf`. Each hand-off below
//! is checked for two things: the receiving layer shares the sender's
//! allocation (`Rc::ptr_eq`) until the next write, and a later write never
//! changes the bytes an earlier holder captured. The DRBD commit hand-off
//! is checked the same way in `nilicon-drbd`'s `tests/page_sharing.rs`.

use nilicon_sim::block::BlockDevice;
use nilicon_sim::fs::PageCache;
use nilicon_sim::ids::{DevId, Ino, Pid};
use nilicon_sim::mem::{AddressSpace, PageBuf, Perms, TrackingMode, Vma, VmaKind};
use nilicon_sim::net::InputMode;
use nilicon_sim::{zero_page, Kernel, PAGE_SIZE};
use std::rc::Rc;

const PS: u64 = PAGE_SIZE as u64;
const BASE: u64 = 0x10000;
const VPN: u64 = BASE / PS;

fn space() -> AddressSpace {
    let mut a = AddressSpace::new();
    a.mmap(Vma {
        start: BASE,
        len: 16 * PS,
        perms: Perms::RW,
        kind: VmaKind::Anon,
        is_heap: true,
        is_stack: false,
    })
    .unwrap();
    a.set_tracking(TrackingMode::SoftDirty);
    a
}

fn filled(tag: u8) -> PageBuf {
    Rc::new([tag; PAGE_SIZE])
}

fn cached(pc: &PageCache, ino: Ino, idx: u64) -> PageBuf {
    Rc::clone(&pc.get(ino, idx).expect("cached page").data)
}

#[test]
fn frame_to_snapshot_page() {
    let mut a = space();
    assert!(
        Rc::ptr_eq(&a.snapshot_page(VPN).unwrap(), &zero_page()),
        "an untouched page snapshots as the shared zero page"
    );
    a.write(BASE, b"epoch one").unwrap();
    let s1 = a.snapshot_page(VPN).unwrap();
    assert!(Rc::ptr_eq(&s1, &a.snapshot_page(VPN).unwrap()));

    a.write(BASE, b"epoch two").unwrap();
    let s2 = a.snapshot_page(VPN).unwrap();
    assert!(
        !Rc::ptr_eq(&s1, &s2),
        "the write copied away from the holder"
    );
    assert_eq!(&s1[..9], b"epoch one");
    assert_eq!(&s2[..9], b"epoch two");

    // With no other holder left, a write lands in place.
    let at = Rc::as_ptr(&s2);
    drop((s1, s2));
    a.write(BASE, b"epoch six").unwrap();
    assert_eq!(Rc::as_ptr(&a.snapshot_page(VPN).unwrap()), at);
}

#[test]
fn cow_protect_fault_staging_and_drain() {
    let mut a = space();
    for p in 0..3u8 {
        a.write(BASE + u64::from(p) * PS, &[p + 1; 8]).unwrap();
    }
    let dirty = a.soft_dirty_vpns();
    let frozen: Vec<PageBuf> = dirty.iter().map(|&v| a.snapshot_page(v).unwrap()).collect();
    a.clear_refs();
    a.cow_protect(&dirty);

    // A racing write stages the checkpoint-time buffer itself, then copies.
    assert_eq!(a.write(BASE, b"race").unwrap().cow_faults, 1);
    let staged = a.take_cow_staged();
    assert_eq!(staged.len(), 1);
    assert!(Rc::ptr_eq(&staged[0].1, &frozen[0]));
    assert_eq!(staged[0].1[..8], [1; 8]);
    assert_eq!(&a.snapshot_page(VPN).unwrap()[..4], b"race");

    // The copier hands out the frames' buffers.
    let drained = a.cow_drain(usize::MAX);
    assert_eq!(drained.len(), 2);
    for ((vpn, buf), frame) in drained.iter().zip(&frozen[1..]) {
        assert!(Rc::ptr_eq(buf, frame));
        assert!(Rc::ptr_eq(buf, &a.snapshot_page(*vpn).unwrap()));
    }

    // A write after the drain leaves the drained copy as it was.
    a.write(BASE + PS, b"later").unwrap();
    assert_eq!(drained[0].1[..8], [2; 8]);
    assert_eq!(&a.snapshot_page(VPN + 1).unwrap()[..5], b"later");
}

#[test]
fn cache_write_flush_to_disk_store_and_write_log() {
    let mut pc = PageCache::new();
    let mut disk = BlockDevice::new(DevId(1));
    pc.write(Ino(1), 0, 0, b"v1");
    assert_eq!(pc.flush(&mut disk, None), 1);
    let page = cached(&pc, Ino(1), 0);
    assert!(Rc::ptr_eq(&page, disk.read_page(Ino(1), 0).unwrap()));
    let log = disk.take_writes();
    assert!(Rc::ptr_eq(&page, &log[0].data));

    pc.write(Ino(1), 0, 0, b"v2");
    assert_eq!(&cached(&pc, Ino(1), 0)[..2], b"v2");
    assert_eq!(&disk.read_page(Ino(1), 0).unwrap()[..2], b"v1");
    assert_eq!(&log[0].data[..2], b"v1");
    assert_eq!(&page[..2], b"v1");
}

#[test]
fn cache_fault_in_shares_the_disk_page() {
    let mut disk = BlockDevice::new(DevId(1));
    disk.write_page(Ino(2), 4, filled(9));
    let mut pc = PageCache::new();
    let mut buf = [0u8; 3];
    assert!(pc.read(&disk, Ino(2), 4, 0, &mut buf));
    assert!(Rc::ptr_eq(
        &cached(&pc, Ino(2), 4),
        disk.read_page(Ino(2), 4).unwrap()
    ));

    pc.write(Ino(2), 4, 0, b"new");
    assert_eq!(disk.read_page(Ino(2), 4).unwrap()[..3], [9; 3]);
}

#[test]
fn fgetfc_and_install() {
    let mut pc = PageCache::new();
    pc.write(Ino(1), 3, 0, b"ckpt");
    let ckpt = pc.fgetfc();
    assert!(Rc::ptr_eq(&ckpt.pages[0].2, &cached(&pc, Ino(1), 3)));

    pc.write(Ino(1), 3, 0, b"next");
    assert_eq!(&ckpt.pages[0].2[..4], b"ckpt");

    let mut restored = PageCache::new();
    restored.install(&ckpt);
    assert!(Rc::ptr_eq(&ckpt.pages[0].2, &cached(&restored, Ino(1), 3)));
    restored.write(Ino(1), 3, 0, b"post");
    assert_eq!(&ckpt.pages[0].2[..4], b"ckpt");
}

#[test]
fn restore_install_pages_then_guest_write() {
    let mut k = Kernel::default();
    let cg = k.cgroups.create("/docker/c1");
    let ns = k.namespaces.create_set("c1").net;
    k.create_stack(ns, 10, InputMode::Buffer);
    let pid = k.spawn_process(Pid(1), cg, ns, "/bin/server");
    k.mmap_anon(pid, BASE, 4 * PS, true).unwrap();

    // The backup's committed image.
    let committed = vec![(VPN, filled(7)), (VPN + 1, filled(8))];
    k.install_pages(pid, &committed).unwrap();
    for (vpn, buf) in &committed {
        assert!(Rc::ptr_eq(
            buf,
            &k.mm(pid).unwrap().snapshot_page(*vpn).unwrap()
        ));
    }

    k.mem_write(pid, BASE, b"guest").unwrap();
    assert_eq!(
        committed[0].1[..],
        [7; PAGE_SIZE][..],
        "committed image unchanged"
    );
    let mut buf = [0u8; 6];
    k.mem_read(pid, BASE, &mut buf).unwrap();
    assert_eq!(&buf, b"guest\x07");
    assert!(
        Rc::ptr_eq(
            &committed[1].1,
            &k.mm(pid).unwrap().snapshot_page(VPN + 1).unwrap()
        ),
        "an unwritten page stays shared"
    );
}
