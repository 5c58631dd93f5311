//! Property-based invariants of the power-analysis layer.

use ahbpower::{
    hamming, AhbPowerModel, AnalysisConfig, BlockEnergy, GlobalProbe, InlineProbe, PowerFsm,
    PowerProbe, PowerSession, PowerTrace, SubBlock, TechParams,
};
use ahbpower_ahb::{pack_wires, BusSnapshot, HBurst, HResp, HSize, HTrans, MasterId};
use proptest::prelude::*;

fn arb_snapshot() -> impl Strategy<Value = BusSnapshot> {
    (
        any::<u32>(),
        0u8..4,
        any::<bool>(),
        any::<u32>(),
        any::<u32>(),
        0u8..3,
        any::<bool>(),
        0u32..8,
    )
        .prop_map(
            |(haddr, trans, hwrite, hwdata, hrdata, master, hready, hbusreq)| {
                let htrans = match trans {
                    0 => HTrans::Idle,
                    1 => HTrans::Busy,
                    2 => HTrans::NonSeq,
                    _ => HTrans::Seq,
                };
                BusSnapshot {
                    cycle: 0,
                    haddr,
                    htrans,
                    hwrite,
                    hsize: HSize::Word,
                    hburst: HBurst::Single,
                    hwdata,
                    hrdata,
                    hready,
                    hresp: HResp::Okay,
                    hmaster: MasterId(master),
                    hmastlock: false,
                    hbusreq,
                    hgrant: pack_wires([master == 0, master == 1, master == 2]),
                    hsel: pack_wires([haddr % 3 == 0, haddr % 3 == 1, haddr % 3 == 2]),
                }
            },
        )
}

const TRANS: [HTrans; 4] = [HTrans::Idle, HTrans::Busy, HTrans::NonSeq, HTrans::Seq];
const SIZES: [HSize; 3] = [HSize::Byte, HSize::Half, HSize::Word];
const BURSTS: [HBurst; 8] = [
    HBurst::Single,
    HBurst::Incr,
    HBurst::Wrap4,
    HBurst::Incr4,
    HBurst::Wrap8,
    HBurst::Incr8,
    HBurst::Wrap16,
    HBurst::Incr16,
];
const RESPS: [HResp; 4] = [HResp::Okay, HResp::Error, HResp::Retry, HResp::Split];

/// A snapshot with every wire the power model reads drawn at full width,
/// including all 32 HBUSREQ and HSEL lines; the owner is any of 8 masters
/// (reduced modulo the bus's master count by the caller).
fn full_width_snapshot() -> impl Strategy<Value = BusSnapshot> {
    (
        (any::<u32>(), 0usize..4, any::<bool>(), 0usize..3, 0usize..8),
        (any::<u32>(), any::<u32>(), any::<bool>(), 0usize..4),
        (0u8..8, any::<u32>(), any::<u32>()),
    )
        .prop_map(
            |(
                (haddr, trans, hwrite, size, burst),
                (hwdata, hrdata, hready, resp),
                (master, hbusreq, hsel),
            )| BusSnapshot {
                cycle: 0,
                haddr,
                htrans: TRANS[trans],
                hwrite,
                hsize: SIZES[size],
                hburst: BURSTS[burst],
                hwdata,
                hrdata,
                hready,
                hresp: RESPS[resp],
                hmaster: MasterId(master),
                hmastlock: false,
                hbusreq,
                hgrant: 1 << master,
                hsel,
            },
        )
}

/// Feeds `snaps` to a power FSM and checks every cycle's booked energy
/// against [`AhbPowerModel::cycle_energy`] bit for bit, under the model in
/// force at that cycle. `inject` scales one block's coefficients before
/// the given cycle, as `--inject` does mid-run.
fn assert_fsm_matches_oracle(
    model: AhbPowerModel,
    snaps: &[BusSnapshot],
    inject: Option<(usize, SubBlock, f64)>,
) -> Result<(), TestCaseError> {
    let bits = |e: BlockEnergy| [e.dec, e.m2s, e.s2m, e.arb].map(f64::to_bits);
    let mut oracle = model.clone();
    let mut fsm = PowerFsm::new(model);
    let mut prev: Option<BusSnapshot> = None;
    for (i, snap) in snaps.iter().enumerate() {
        if let Some((at, block, factor)) = inject {
            if i == at {
                fsm.scale_block(block, factor);
                oracle.scale_block(block, factor);
            }
        }
        let want = prev.map_or(BlockEnergy::default(), |p| oracle.cycle_energy(&p, snap));
        let got = fsm.observe(snap).energy;
        prop_assert_eq!(bits(got), bits(want), "cycle {i}: {got:?} vs {want:?}");
        prev = Some(*snap);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fsm_energy_is_the_cycle_energy_oracle_at_every_bus_size(
        snaps in prop::collection::vec(full_width_snapshot(), 8..32),
        inject_at in 1usize..7,
        block in 0usize..4,
        factor in prop_oneof![0.0f64..0.9, 1.1f64..4.0],
    ) {
        let tech = TechParams::default();
        for m in 2..=8usize {
            for s in 2..=8usize {
                let snaps: Vec<BusSnapshot> = snaps
                    .iter()
                    .map(|&x| {
                        let owner = x.hmaster.0 % m as u8;
                        BusSnapshot { hmaster: MasterId(owner), hgrant: 1 << owner, ..x }
                    })
                    .collect();
                let model = AhbPowerModel::new(m, s, &tech);
                assert_fsm_matches_oracle(model.clone(), &snaps, None)?;
                let inject = (inject_at, SubBlock::ALL[block], factor);
                assert_fsm_matches_oracle(model, &snaps, Some(inject))?;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn cycle_energy_is_finite_and_nonnegative(
        a in arb_snapshot(),
        b in arb_snapshot(),
    ) {
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let e = model.cycle_energy(&a, &b);
        for v in [e.dec, e.m2s, e.s2m, e.arb, e.total()] {
            prop_assert!(v.is_finite());
            prop_assert!(v >= 0.0);
        }
    }

    #[test]
    fn cycle_energy_is_zero_hd_symmetric(
        a in arb_snapshot(),
        b in arb_snapshot(),
    ) {
        // Hamming distances are symmetric, and so is every model term that
        // depends only on them. The handover/select indicators are also
        // symmetric (inequality). Hence E(a->b) == E(b->a).
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let ab = model.cycle_energy(&a, &b).total();
        let ba = model.cycle_energy(&b, &a).total();
        prop_assert!((ab - ba).abs() <= 1e-12 * ab.max(1.0));
    }

    #[test]
    fn energy_is_monotone_in_wdata_bits(
        base in arb_snapshot(),
        word in any::<u32>(),
    ) {
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let mut few = base;
        few.hwdata = base.hwdata ^ 1; // one bit flipped
        let mut many = base;
        many.hwdata = base.hwdata ^ (word | 1); // at least one bit flipped
        let e_few = model.cycle_energy(&base, &few).m2s;
        let e_many = model.cycle_energy(&base, &many).m2s;
        let hd_few = hamming(u64::from(base.hwdata), u64::from(few.hwdata));
        let hd_many = hamming(u64::from(base.hwdata), u64::from(many.hwdata));
        if hd_many >= hd_few {
            prop_assert!(e_many >= e_few - 1e-18);
        } else {
            prop_assert!(e_few >= e_many - 1e-18);
        }
    }

    #[test]
    fn global_probe_matches_inline_on_any_trace(
        snaps in prop::collection::vec(arb_snapshot(), 2..40),
    ) {
        let model = AhbPowerModel::new(3, 3, &TechParams::default());
        let mut inline = InlineProbe::new(model.clone());
        let mut global = GlobalProbe::new(model);
        for s in &snaps {
            inline.observe(s);
            global.observe(s);
        }
        let a = inline.total_energy();
        let b = global.total_energy();
        prop_assert!((a - b).abs() <= 1e-9 * a.max(1e-18), "{a} vs {b}");
    }

    #[test]
    fn trace_energy_equals_sum_of_inputs(
        energies in prop::collection::vec(0.0f64..1e-9, 1..100),
        window in 1u64..20,
    ) {
        let mut trace = PowerTrace::new(window, 100e6);
        let mut total_in = 0.0;
        for &e in &energies {
            trace.push(BlockEnergy {
                dec: e * 0.1,
                m2s: e * 0.4,
                s2m: e * 0.3,
                arb: e * 0.2,
            });
            total_in += e;
        }
        trace.finish();
        let total_out: f64 = trace
            .points()
            .iter()
            .map(|p| p.total_w)
            .zip(window_durations(&trace, energies.len() as u64, window))
            .map(|(w, dt)| w * dt)
            .sum();
        prop_assert!(
            (total_in - total_out).abs() <= 1e-9 * total_in.max(1e-18),
            "{total_in} vs {total_out}"
        );
    }

    #[test]
    fn hamming_properties(a in any::<u64>(), b in any::<u64>(), c in any::<u64>()) {
        prop_assert_eq!(hamming(a, a), 0);
        prop_assert_eq!(hamming(a, b), hamming(b, a));
        // Triangle inequality over the hypercube metric.
        prop_assert!(hamming(a, c) <= hamming(a, b) + hamming(b, c));
    }
}

/// Durations of each emitted window (the last may be partial).
fn window_durations(trace: &PowerTrace, n: u64, window: u64) -> Vec<f64> {
    let full = (n / window) as usize;
    let mut out = vec![window as f64 / 100e6; full];
    let rem = n % window;
    if rem > 0 {
        out.push(rem as f64 / 100e6);
    }
    assert_eq!(out.len(), trace.points().len());
    out
}

#[test]
fn every_bit_flipped_reaches_the_widest_distances() {
    let quiet = BusSnapshot {
        cycle: 0,
        haddr: 0,
        htrans: HTrans::Idle,
        hwrite: false,
        hsize: HSize::Half,
        hburst: HBurst::Single,
        hwdata: 0,
        hrdata: 0,
        hready: false,
        hresp: HResp::Okay,
        hmaster: MasterId(0),
        hmastlock: false,
        hbusreq: 0,
        hgrant: 1,
        hsel: 0,
    };
    let loud = BusSnapshot {
        cycle: 1,
        haddr: u32::MAX,
        htrans: HTrans::Seq,
        hwrite: true,
        hsize: HSize::Word,
        hburst: HBurst::Incr16,
        hwdata: u32::MAX,
        hrdata: u32::MAX,
        hready: true,
        hresp: HResp::Split,
        hmaster: MasterId(1),
        hmastlock: false,
        hbusreq: u32::MAX,
        hgrant: 2,
        hsel: u32::MAX,
    };
    let hd = |a: u32, b: u32| hamming(u64::from(a), u64::from(b));
    let resp = |s: &BusSnapshot| u32::from(s.hresp.bits()) | (u32::from(s.hready) << 2);
    assert_eq!(hd(quiet.haddr, loud.haddr), 32, "address");
    // HSIZE's encodings (000, 001, 010) differ in at most two bits, so
    // the 9-bit control bundle tops out at 8 flipped bits.
    let m2s_rest = hd(quiet.control_bits(), loud.control_bits()) + hd(quiet.hwdata, loud.hwdata);
    assert_eq!(m2s_rest, 40, "M2S control + write data");
    let s2m = hd(quiet.hrdata, loud.hrdata) + hd(resp(&quiet), resp(&loud));
    assert_eq!(s2m, 35, "S2M read data + response");
    assert_eq!(hd(quiet.hbusreq, loud.hbusreq), 32, "request");
    let model = AhbPowerModel::new(8, 8, &TechParams::default());
    for pair in [[quiet, loud], [loud, quiet]] {
        assert_fsm_matches_oracle(model.clone(), &pair, None).expect("table matches oracle");
    }
}

#[test]
fn ledger_and_blocks_account_identically_on_real_traffic() {
    let cfg = AnalysisConfig::paper_testbench();
    let mut bus = ahbpower_workloads::PaperTestbench::sized_for(10_000, 9)
        .build()
        .expect("builds");
    let mut session = PowerSession::new(&cfg);
    session.run(&mut bus, 10_000);
    let a = session.ledger().total_energy();
    let b = session.blocks().totals().total();
    assert!(a > 0.0);
    assert!((a - b).abs() < 1e-12 * a);
    assert_eq!(session.ledger().total_count(), 10_000);
    assert_eq!(session.blocks().cycles(), 10_000);
}
