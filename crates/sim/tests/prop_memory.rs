//! Property tests: soft-dirty tracking against a reference model.
//!
//! DESIGN.md invariant 7: after `clear_refs`, `pagemap` returns *exactly*
//! the set of pages written since — no false dirties, no missed writes —
//! under arbitrary interleavings of writes, reads, clears, and scans.

use nilicon_sim::mem::{AddressSpace, PageBuf, Perms, TrackingMode, Vma, VmaKind};
use nilicon_sim::PAGE_SIZE;
use proptest::prelude::*;
use std::collections::BTreeSet;

const PAGES: u64 = 64;
const BASE: u64 = 0x10000;

#[derive(Debug, Clone)]
enum Op {
    Write { page: u64, off: u64, len: usize },
    Read { page: u64 },
    ClearRefs,
    Scan,
}

/// One step of the post-checkpoint race between the container (writes) and
/// the background COW copier (chunked drains).
#[derive(Debug, Clone)]
enum RaceOp {
    Write { page: u64 },
    Drain { max: usize },
}

fn race_strategy() -> impl Strategy<Value = RaceOp> {
    prop_oneof![
        (0..PAGES).prop_map(|page| RaceOp::Write { page }),
        (1..8usize).prop_map(|max| RaceOp::Drain { max }),
    ]
}

/// One step of a random interleaving of guest writes with layers that take
/// and release shared page buffers.
#[derive(Debug, Clone)]
enum ShareOp {
    Write {
        page: u64,
        off: usize,
        byte: u8,
    },
    Snapshot {
        page: u64,
    },
    Release {
        nth: usize,
    },
    /// Restore a held snapshot into `page`: the frame shares the buffer.
    Install {
        nth: usize,
        page: u64,
    },
}

fn share_strategy() -> impl Strategy<Value = ShareOp> {
    prop_oneof![
        (0..PAGES, 0..PAGE_SIZE, any::<u8>()).prop_map(|(page, off, byte)| ShareOp::Write {
            page,
            off,
            byte
        }),
        (0..PAGES).prop_map(|page| ShareOp::Snapshot { page }),
        (0..16usize).prop_map(|nth| ShareOp::Release { nth }),
        (0..16usize, 0..PAGES).prop_map(|(nth, page)| ShareOp::Install { nth, page }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..PAGES, 0..4000u64, 1..64usize).prop_map(|(page, off, len)| Op::Write {
            page,
            off,
            len
        }),
        (0..PAGES).prop_map(|page| Op::Read { page }),
        Just(Op::ClearRefs),
        Just(Op::Scan),
    ]
}

fn space() -> AddressSpace {
    let mut a = AddressSpace::new();
    a.mmap(Vma {
        start: BASE,
        len: PAGES * PAGE_SIZE as u64,
        perms: Perms::RW,
        kind: VmaKind::Anon,
        is_heap: true,
        is_stack: false,
    })
    .unwrap();
    a.set_tracking(TrackingMode::SoftDirty);
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn pagemap_matches_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut a = space();
        let mut model: BTreeSet<u64> = BTreeSet::new();

        for op in ops {
            match op {
                Op::Write { page, off, len } => {
                    let addr = BASE + page * PAGE_SIZE as u64 + off.min(PAGE_SIZE as u64 - len as u64);
                    let data = vec![0xAB; len];
                    a.write(addr, &data).unwrap();
                    // The write may straddle into the next page.
                    let first = addr / PAGE_SIZE as u64;
                    let last = (addr + len as u64 - 1) / PAGE_SIZE as u64;
                    for vpn in first..=last {
                        model.insert(vpn);
                    }
                }
                Op::Read { page } => {
                    let mut buf = [0u8; 32];
                    a.read(BASE + page * PAGE_SIZE as u64, &mut buf).unwrap();
                    // Reads never dirty.
                }
                Op::ClearRefs => {
                    a.clear_refs();
                    model.clear();
                }
                Op::Scan => {
                    let dirty: BTreeSet<u64> = a.soft_dirty_vpns().into_iter().collect();
                    prop_assert_eq!(&dirty, &model, "scan must match the model exactly");
                }
            }
        }
        let dirty: BTreeSet<u64> = a.soft_dirty_vpns().into_iter().collect();
        prop_assert_eq!(dirty, model);
    }

    /// Invariant 7 under COW checkpointing: write-protecting the dirty set
    /// and draining it in the background must not perturb soft-dirty
    /// tracking — after `clear_refs`, the pagemap returns *exactly* the
    /// pages written since, even when those writes race the copier. And
    /// every protected page is copied out exactly once, with its
    /// checkpoint-time contents (copy-before-write), no matter how the race
    /// interleaves.
    #[test]
    fn cow_copier_race_preserves_tracking_model_and_checkpoint_contents(
        pre in proptest::collection::vec((0..PAGES, any::<u8>()), 1..40),
        race in proptest::collection::vec(race_strategy(), 1..100),
    ) {
        use std::collections::BTreeMap;
        let mut a = space();

        // Epoch body: dirty some pages, remembering each page's
        // checkpoint-time tag (offset 500 stays zero until the race).
        let mut checkpoint_tag: BTreeMap<u64, u8> = BTreeMap::new();
        for &(page, tag) in &pre {
            a.write(BASE + page * PAGE_SIZE as u64 + 11, &[tag]).unwrap();
            checkpoint_tag.insert(BASE / PAGE_SIZE as u64 + page, tag);
        }

        // Pause: collect the dirty set, start a new tracking generation,
        // and write-protect instead of copying.
        let dirty: Vec<u64> = a.soft_dirty_vpns();
        prop_assert_eq!(dirty.len(), checkpoint_tag.len());
        a.clear_refs();
        a.cow_protect(&dirty);

        // Resume: container writes race the background copier.
        let mut still_protected: BTreeSet<u64> = dirty.iter().copied().collect();
        let mut raced: BTreeSet<u64> = BTreeSet::new();
        let mut model_dirty: BTreeSet<u64> = BTreeSet::new();
        let mut faults = 0u64;
        let mut collected: BTreeMap<u64, PageBuf> = BTreeMap::new();
        let collect = |got: Vec<(u64, PageBuf)>,
                           collected: &mut BTreeMap<u64, PageBuf>| {
            for (vpn, snap) in got {
                prop_assert!(collected.insert(vpn, snap).is_none(),
                    "page {vpn} copied out twice");
            }
            Ok(())
        };
        for op in race {
            match op {
                RaceOp::Write { page } => {
                    let vpn = BASE / PAGE_SIZE as u64 + page;
                    let out = a.write(BASE + page * PAGE_SIZE as u64 + 500, &[0x5A]).unwrap();
                    faults += u64::from(out.cow_faults);
                    model_dirty.insert(vpn);
                    if still_protected.remove(&vpn) {
                        raced.insert(vpn);
                    }
                }
                RaceOp::Drain { max } => {
                    collect(a.take_cow_staged(), &mut collected)?;
                    let got = a.cow_drain(max);
                    for (vpn, _) in &got {
                        prop_assert!(still_protected.remove(vpn),
                            "drained a page that was not protected");
                    }
                    collect(got, &mut collected)?;
                }
            }
        }
        // Final drain: the copier always finishes before the next epoch.
        collect(a.take_cow_staged(), &mut collected)?;
        collect(a.cow_drain(usize::MAX), &mut collected)?;
        prop_assert_eq!(a.cow_protected_count(), 0);

        // Tracking model holds: exactly the racing writes are dirty.
        let scanned: BTreeSet<u64> = a.soft_dirty_vpns().into_iter().collect();
        prop_assert_eq!(&scanned, &model_dirty, "COW race perturbed soft-dirty tracking");

        // Every protected page was copied out exactly once, and each copy
        // holds checkpoint-time contents: the pre-race tag at offset 11 and
        // a zero at offset 500 (racing writes never leak into the image).
        prop_assert_eq!(faults as usize, raced.len(), "one fault per first racing write");
        let copied: BTreeSet<u64> = collected.keys().copied().collect();
        let expected: BTreeSet<u64> = checkpoint_tag.keys().copied().collect();
        prop_assert_eq!(&copied, &expected);
        for (vpn, snap) in &collected {
            prop_assert_eq!(snap[11], checkpoint_tag[vpn], "stale tag in copied page");
            prop_assert_eq!(snap[500], 0, "racing write leaked into the checkpoint copy");
        }
    }

    #[test]
    fn tracking_faults_fire_once_per_page_per_generation(
        pages in proptest::collection::vec(0..PAGES, 1..80)
    ) {
        let mut a = space();
        a.clear_refs();
        let mut seen = BTreeSet::new();
        let mut faults = 0u32;
        for page in pages {
            let out = a.write(BASE + page * PAGE_SIZE as u64, b"x").unwrap();
            faults += out.tracking_faults;
            seen.insert(page);
        }
        prop_assert_eq!(faults as usize, seen.len(), "exactly one fault per distinct page");
    }

    #[test]
    fn read_write_roundtrip_any_alignment(
        off in 0..(PAGES - 2) * PAGE_SIZE as u64,
        data in proptest::collection::vec(any::<u8>(), 1..5000)
    ) {
        let mut a = space();
        a.write(BASE + off, &data).unwrap();
        let mut back = vec![0u8; data.len()];
        a.read(BASE + off, &mut back).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn snapshot_install_preserves_contents(
        writes in proptest::collection::vec((0..PAGES, any::<u8>()), 1..40)
    ) {
        let mut a = space();
        for &(page, tag) in &writes {
            a.write(BASE + page * PAGE_SIZE as u64 + 7, &[tag]).unwrap();
        }
        let mut b = space();
        for vpn in a.resident_vpns() {
            let snap = a.snapshot_page(vpn).unwrap();
            b.install_page(vpn, &snap).unwrap();
        }
        for &(page, _) in &writes {
            let vpn = BASE / PAGE_SIZE as u64 + page;
            prop_assert_eq!(a.snapshot_page(vpn).unwrap(), b.snapshot_page(vpn).unwrap());
        }
        prop_assert_eq!(b.soft_dirty_count(), 0, "restored pages start clean");
    }

    /// Copy-on-write isolation: under any interleaving of guest writes,
    /// snapshots, releases and restores, memory matches a flat byte model,
    /// and every held snapshot keeps exactly the bytes it was taken with.
    #[test]
    fn snapshot_contents_never_change(
        ops in proptest::collection::vec(share_strategy(), 1..150)
    ) {
        let mut a = space();
        let mut model = vec![0u8; PAGES as usize * PAGE_SIZE];
        // (snapshot, the bytes it must keep)
        let mut held: Vec<(PageBuf, Vec<u8>)> = Vec::new();
        let page_of = |model: &[u8], page: u64| {
            model[page as usize * PAGE_SIZE..(page as usize + 1) * PAGE_SIZE].to_vec()
        };
        for op in ops {
            match op {
                ShareOp::Write { page, off, byte } => {
                    a.write(BASE + page * PAGE_SIZE as u64 + off as u64, &[byte]).unwrap();
                    model[page as usize * PAGE_SIZE + off] = byte;
                }
                ShareOp::Snapshot { page } => {
                    let snap = a.snapshot_page(BASE / PAGE_SIZE as u64 + page).unwrap();
                    prop_assert_eq!(&snap[..], &page_of(&model, page)[..]);
                    held.push((snap, page_of(&model, page)));
                }
                ShareOp::Release { nth } => {
                    if !held.is_empty() {
                        held.swap_remove(nth % held.len());
                    }
                }
                ShareOp::Install { nth, page } => {
                    if let Some((snap, bytes)) = held.get(nth % held.len().max(1)) {
                        a.install_page(BASE / PAGE_SIZE as u64 + page, snap).unwrap();
                        let at = page as usize * PAGE_SIZE;
                        model[at..at + PAGE_SIZE].copy_from_slice(bytes);
                    }
                }
            }
            for (snap, bytes) in &held {
                prop_assert_eq!(&snap[..], &bytes[..], "a later write changed a snapshot");
            }
        }
        let mut mem = vec![0u8; model.len()];
        a.read(BASE, &mut mem).unwrap();
        prop_assert_eq!(mem, model);
    }
}
