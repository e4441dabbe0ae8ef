//! Property tests: DRBD replication under random write/barrier/commit/crash
//! schedules (DESIGN.md invariant 10) — the backup disk always equals the
//! primary disk as of the last *committed* barrier.

use nilicon_drbd::{DrbdBackup, DrbdPrimary};
use nilicon_sim::block::BlockDevice;
use nilicon_sim::ids::{DevId, Ino};
use nilicon_sim::PAGE_SIZE;
use proptest::prelude::*;

fn page(tag: u8) -> nilicon_sim::PageBuf {
    nilicon_sim::PageBuf::new([tag; PAGE_SIZE])
}

#[derive(Debug, Clone)]
enum Ev {
    Write { ino: u64, idx: u64, tag: u8 },
    EndEpoch,
    CommitLatest,
}

fn schedule() -> impl Strategy<Value = Vec<Ev>> {
    proptest::collection::vec(
        prop_oneof![
            4 => (1..3u64, 0..32u64, any::<u8>())
                .prop_map(|(ino, idx, tag)| Ev::Write { ino, idx, tag }),
            2 => Just(Ev::EndEpoch),
            1 => Just(Ev::CommitLatest),
        ],
        1..80,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn backup_equals_primary_at_last_committed_barrier(events in schedule()) {
        let mut pdisk = BlockDevice::new(DevId(1));
        let mut bdisk = BlockDevice::new(DevId(2));
        let mut pri = DrbdPrimary::new();
        let mut bak = DrbdBackup::new();

        // Reference: snapshot of the primary digest at each sealed epoch.
        let mut epoch = 0u64;
        let mut sealed_digests: Vec<(u64, u64)> = Vec::new(); // (epoch, digest)
        let mut committed: Option<u64> = None;

        for ev in events {
            match ev {
                Ev::Write { ino, idx, tag } => {
                    pdisk.write_page(Ino(ino), idx, page(tag));
                    for m in pri.ship(&mut pdisk) {
                        bak.receive(m);
                    }
                }
                Ev::EndEpoch => {
                    epoch += 1;
                    bak.receive(pri.barrier(epoch));
                    sealed_digests.push((epoch, pdisk.digest()));
                }
                Ev::CommitLatest => {
                    if let Some(&(e, digest)) = sealed_digests.last() {
                        bak.commit(e, &mut bdisk);
                        committed = Some(e);
                        prop_assert_eq!(
                            bdisk.digest(),
                            digest,
                            "backup disk == primary at barrier {}",
                            e
                        );
                    }
                }
            }
        }

        // Crash now: discard uncommitted; the backup must still equal the
        // primary's state at the last committed barrier.
        bak.discard_uncommitted();
        if let Some(e) = committed {
            let want = sealed_digests.iter().find(|(se, _)| *se == e).unwrap().1;
            prop_assert_eq!(bdisk.digest(), want, "post-crash disk == committed state");
        } else {
            prop_assert_eq!(bdisk.stored_pages(), 0, "nothing committed, nothing applied");
        }
        prop_assert_eq!(bak.buffered(), 0);
    }

    #[test]
    fn commit_is_idempotent_and_monotone(n_epochs in 1..10u64) {
        let mut pdisk = BlockDevice::new(DevId(1));
        let mut bdisk = BlockDevice::new(DevId(2));
        let mut pri = DrbdPrimary::new();
        let mut bak = DrbdBackup::new();
        for e in 1..=n_epochs {
            pdisk.write_page(Ino(1), e, page(e as u8));
            for m in pri.ship(&mut pdisk) {
                bak.receive(m);
            }
            bak.receive(pri.barrier(e));
        }
        bak.commit(n_epochs, &mut bdisk);
        let digest = bdisk.digest();
        // Double commit and stale (lower-epoch) commit are no-ops.
        bak.commit(n_epochs, &mut bdisk);
        bak.commit(1, &mut bdisk);
        prop_assert_eq!(bdisk.digest(), digest);
        prop_assert_eq!(bak.committed_epoch(), Some(n_epochs));
        prop_assert_eq!(pdisk.digest(), digest, "fully committed == primary");
    }
}
