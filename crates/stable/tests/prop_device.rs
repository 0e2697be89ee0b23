//! Device-level property tests: the byte-extent view and the mirrored disk
//! against reference models.
//!
//! Driven by the in-tree deterministic RNG (`argus_sim::DetRng`) with fixed
//! seeds, so every "random" case is exactly reproducible and no external
//! property-testing crate is needed.

use argus_sim::{CostModel, DetRng, SimClock};
use argus_stable::{ByteDevice, FaultPlan, MemStore, MirroredDisk, Page, PageStore, PAGE_SIZE};

fn bytes(rng: &mut DetRng, len: usize) -> Vec<u8> {
    (0..len).map(|_| (rng.next_u64() & 0xFF) as u8).collect()
}

/// Any interleaving of overlapping byte-extent writes and reads — loans of
/// any length, at any alignment, near the last access or far from it — reads
/// exactly like a flat byte-array model.
#[test]
fn byte_device_matches_flat_memory() {
    let mut rng = DetRng::new(0xB17E);
    for case in 0..32 {
        let mut dev = ByteDevice::new(MemStore::new(SimClock::new(), CostModel::fast()));
        let mut model = vec![0u8; 16 * 1024];
        let mut last = 0u64;
        for step in 0..rng.gen_between(2, 60) {
            // Half the accesses stay within a page or two of the last one,
            // on either side, where they extend the device's extent.
            let near = last.saturating_sub(700) + rng.gen_range(1400);
            let offset = match rng.gen_range(2) {
                0 => near.min(8191),
                _ => rng.gen_range(8192),
            };
            last = offset;
            if rng.gen_range(3) == 0 {
                let len = rng.gen_between(1, 1500) as usize;
                let data = bytes(&mut rng, len);
                dev.write_at(offset, &data).unwrap();
                model[offset as usize..offset as usize + len].copy_from_slice(&data);
            } else {
                let len = rng.gen_range(3000);
                let lent = dev.lend(offset, offset + len).unwrap();
                assert_eq!(
                    lent,
                    &model[offset as usize..(offset + len) as usize],
                    "case {case} step {step}"
                );
            }
        }
        let mut all = vec![0u8; model.len()];
        dev.read_at(0, &mut all).unwrap();
        assert_eq!(all, model, "case {case}");
    }
}

/// The mirrored disk behaves exactly like a plain page array under any
/// interleaving of writes and single-copy decay (reads repair).
#[test]
fn mirror_matches_model_under_decay() {
    let mut rng = DetRng::new(0xD15C);
    for case in 0..32 {
        let steps = rng.gen_between(1, 120);
        let mut disk = MirroredDisk::new(FaultPlan::new(), SimClock::new(), CostModel::fast());
        let mut model: Vec<Option<u8>> = vec![None; 32];
        for _ in 0..steps {
            let pno = rng.gen_range(32);
            match rng.gen_range(4) {
                0 | 1 => {
                    let fill = (rng.next_u64() & 0xFF) as u8;
                    disk.write_page(pno, &Page::from_bytes(&[fill])).unwrap();
                    model[pno as usize] = Some(fill);
                }
                2 => disk.decay_a(pno),
                _ => disk.decay_b(pno),
            }
            // Decaying one copy must never change what a read returns. Only
            // check pages the model knows (unwritten pages may not exist).
            if let Some(fill) = model[pno as usize] {
                let got = disk.read_page(pno).unwrap();
                assert_eq!(got.as_slice()[0], fill, "case {case}");
            }
        }
        // Full audit at the end.
        for (pno, expect) in model.iter().enumerate() {
            if let Some(fill) = expect {
                let got = disk.read_page(pno as u64).unwrap();
                assert_eq!(got.as_slice()[0], *fill, "case {case}");
            }
        }
    }
}

/// Torn writes are atomic at page granularity: after a crash mid-write, the
/// page reads as either the old or the new value.
#[test]
fn torn_writes_leave_old_or_new() {
    for crash_at in 0u64..2 {
        let plan = FaultPlan::new();
        let mut disk = MirroredDisk::new(plan.clone(), SimClock::new(), CostModel::fast());
        disk.write_page(0, &Page::from_bytes(b"old")).unwrap();
        plan.arm_after_writes(crash_at);
        let _ = disk.write_page(0, &Page::from_bytes(b"new"));
        plan.heal();
        plan.disarm();
        let got = disk.read_page(0).unwrap();
        assert!(
            got == Page::from_bytes(b"old") || got == Page::from_bytes(b"new"),
            "crash_at {crash_at}: page is neither old nor new"
        );
    }
}

/// Page zero-fill contract: reading any page beyond the written area
/// returns zeros on every store type.
#[test]
fn reads_past_end_are_zero() {
    let mut rng = DetRng::new(0x2E80);
    for _ in 0..16 {
        let pno = rng.gen_range(100);
        let mut mem = MemStore::new(SimClock::new(), CostModel::fast());
        assert_eq!(mem.read_page(pno).unwrap(), Page::zeroed());
        let mut mirror = MirroredDisk::new(FaultPlan::new(), SimClock::new(), CostModel::fast());
        assert_eq!(mirror.read_page(pno).unwrap(), Page::zeroed());
    }
}

/// Page payloads of every size up to PAGE_SIZE roundtrip.
#[test]
fn page_from_bytes_roundtrips() {
    let mut rng = DetRng::new(0x90FB);
    let mut sizes: Vec<usize> = vec![0, 1, PAGE_SIZE - 1, PAGE_SIZE];
    sizes.extend((0..16).map(|_| rng.gen_range(PAGE_SIZE as u64 + 1) as usize));
    for len in sizes {
        let data = bytes(&mut rng, len);
        let page = Page::from_bytes(&data);
        assert_eq!(&page.as_slice()[..data.len()], &data[..], "len {len}");
        assert!(
            page.as_slice()[data.len()..].iter().all(|&b| b == 0),
            "len {len}"
        );
    }
}
